"""The benchmark's traced pass names program entry points by string.

``perf/layers.py`` rebinds every ``WRAPS`` row (module + attribute) to
a timing wrapper. A rename in ``src/`` that drops one of those names
breaks the traced pass; this test makes every tier-1 run see it, not
only the benchmark's smoke leg.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_LAYERS = Path(__file__).resolve().parents[1] / "perf" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up while building classes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize("wrap", layers.WRAPS,
                         ids=lambda w: f"{w.module}:{w.attr}")
def test_every_wrapped_entry_point_resolves(wrap):
    _owner, _attr, original = layers._resolve(wrap)
    assert callable(original)
