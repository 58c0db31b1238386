"""The benchmark's tracer (bench/tracer.py) wraps qwave functions by
name. A rename in the library must fail here, not only when the
benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    tracer = _tracer()
    names = [(mod, fn) for mod, fns in tracer.LAYERS.items() for fn in fns]
    return names + [tracer.KERNEL_BUILDER]


@pytest.mark.parametrize("mod,fn", _targets(), ids=".".join)
def test_traced_function_exists(mod, fn):
    module = importlib.import_module(f"qwave.{mod}")
    assert callable(getattr(module, fn, None)), f"qwave.{mod}.{fn}"
