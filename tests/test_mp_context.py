"""The library's private mpmath contexts, and a guard that keeps the
process-global mpmath.mp context out of the library's source."""

import ast
from pathlib import Path

import mpmath
import pytest

from qwave.qbessel import mp_context

SRC = Path(__file__).resolve().parent.parent / "src" / "qwave"

# mpmath names the library may use: everything else at mpmath's top level
# (mp, mpf, fsum, workdps, ...) computes on the global context
ALLOWED_MPMATH_NAMES = {"MPContext", "libmp"}
PRECISION_BLOCKS = {"workdps", "workprec", "extradps", "extraprec"}


def global_context_uses(source):
    """(line, what) for every use of mpmath's global context, every
    precision block, every .dps/.prec assignment outside mp_context and
    every register_at_fork in a module's source."""
    found = []

    def visit(node, in_mp_context):
        if isinstance(node, ast.FunctionDef) and node.name == "mp_context":
            in_mp_context = True
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mpmath.") and \
                        alias.name != "mpmath.libmp":
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if any(alias.name == "register_at_fork" for alias in node.names):
                found.append((node.lineno, "register_at_fork"))
            if node.module == "mpmath":
                for alias in node.names:
                    if alias.name not in ALLOWED_MPMATH_NAMES:
                        found.append((node.lineno,
                                      f"from mpmath import {alias.name}"))
            elif node.module.startswith("mpmath.") and \
                    not node.module.startswith("mpmath.libmp"):
                found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and \
                    node.value.id == "mpmath" and \
                    node.attr not in ALLOWED_MPMATH_NAMES:
                found.append((node.lineno, f"mpmath.{node.attr}"))
            if node.attr == "register_at_fork":
                found.append((node.lineno, "register_at_fork"))
        elif isinstance(node, ast.Name) and node.id == "register_at_fork":
            found.append((node.lineno, "register_at_fork"))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in PRECISION_BLOCKS:
                found.append((node.lineno, f"{name} call"))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and \
                            sub.attr in ("dps", "prec") and not in_mp_context:
                        found.append((node.lineno, f".{sub.attr} assignment"))
        for child in ast.iter_child_nodes(node):
            visit(child, in_mp_context)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_keeps_off_the_global_context(path):
    assert global_context_uses(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "from mpmath import mp",
    "from mpmath import mpf, MPContext",
    "import mpmath.mp",
    "import mpmath\nx = mpmath.mp.mpf(1)",
    "import mpmath\nx = mpmath.fsum([1])",
    "def f(ctx):\n    with ctx.workdps(50):\n        pass",
    "def f(ctx):\n    with ctx.workprec(200):\n        pass",
    "from mpmath import libmp\nwith workdps(30):\n    pass",
    "def f(ctx):\n    ctx.dps = 50",
    "def f(ctx):\n    ctx.prec += 10",
    "def f(ctx, other):\n    ctx.prec = other.prec = 53",
    "import os\nos.register_at_fork(before=print)",
    "from os import register_at_fork",
])
def test_guard_flags_each_use(source):
    assert global_context_uses(source)


def test_guard_allows_the_context_factory():
    source = ("import mpmath\nfrom mpmath.libmp import mpf_mul\n"
              "def mp_context(dps):\n    ctx = mpmath.MPContext()\n"
              "    ctx.dps = dps\n    return ctx\n"
              "def f():\n    return mp_context(30).mpf(1)\n")
    assert global_context_uses(source) == []


class TestMpContext:
    def test_one_context_per_dps(self):
        assert mp_context(45) is mp_context(45)
        assert mp_context(45) is not mp_context(46)
        assert mp_context(45).dps == 45

    def test_cache_stays_bounded(self):
        bound = mp_context.cache_info().maxsize
        assert bound >= 32
        for dps in range(1000, 1000 + 2 * bound):
            assert mp_context(dps).dps == dps
        assert mp_context.cache_info().currsize == bound
        assert mp_context(45) is mp_context(45)

    def test_independent_of_global_precision(self):
        ctx = mp_context(60)
        third = (ctx.mpf(1) / 3)._mpf_
        prec = ctx.prec
        for dps in (15, 500):
            with mpmath.workdps(dps):
                assert ctx.prec == prec
                assert (ctx.mpf(1) / 3)._mpf_ == third
        with mpmath.workdps(500):
            # a global mpf converts into the context by rounding
            assert ctx.mpf(mpmath.mpf(1) / 3)._mpf_ == third
