"""The benchmark's tracer (bench/tracer.py) wraps qwave functions by
name. A rename in the library must fail here, not only when the
benchmark runs, and so must a library path that routes around a traced
name."""

import importlib
import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


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


def test_tracer_sees_the_spectrum():
    # the tracer patches qwave's module namespaces, so it runs in a child
    # process and leaves this session's modules as they are
    script = textwrap.dedent(f"""
        import importlib.util, json, sys
        sys.path.insert(0, {str(ROOT / "src")!r})
        spec = importlib.util.spec_from_file_location("bench_tracer",
                                                      {str(TRACER)!r})
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        from qwave import (qbessel, qcli, qgrid, qtransform, qwavelet,
                           uncertainty)
        trace = tracer.Tracer()
        trace.install()
        plan = qtransform.make_plan(qgrid.build_grid(0.5, -20, 40),
                                    qgrid.BesselParams(0.0, 0.0))
        qwavelet.operator_mother(plan)
        print(json.dumps(trace.metrics()))
    """)
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    assert done.returncode == 0, done.stderr
    calls, unit = json.loads(done.stdout)["qtransform.spectrum.calls"]
    assert unit == "count" and calls >= 1
