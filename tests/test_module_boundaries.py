"""Module boundaries of the library: qbessel is its one high-precision
layer and the one place that sets a working precision, and no module
reaches into another module's private names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qwave"
PRECISION_HOME = "qbessel"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def boundary_breaches(source, module):
    """(line, what) for every private name the module imports or reads
    from another qwave module, and, outside qbessel, every mp_context call
    with a numeric literal in its arguments and every *_DPS constant."""
    tree = ast.parse(source)
    found = []
    # local names bound to a qwave module: `from qwave import qtransform`,
    # `import qwave.qtransform as qt`, `import qwave`
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_qwave = node.level > 0 or node.module == "qwave" or (
                node.module or "").startswith("qwave.")
            if not from_qwave:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"import of {alias.name}"))
                elif node.module in ("qwave", None):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "qwave" or alias.name.startswith("qwave."):
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _dotted(node.value)
            if owner and (owner in modules or (
                    owner.split(".")[0] == "qwave" and owner != "qwave")):
                found.append((node.lineno, f"read of {owner}.{node.attr}"))
    if module == PRECISION_HOME:
        return found
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name == "mp_context":
                args = node.args + [kw.value for kw in node.keywords]
                if any(isinstance(sub, ast.Constant)
                       and isinstance(sub.value, (int, float))
                       and not isinstance(sub.value, bool)
                       for arg in args for sub in ast.walk(arg)):
                    found.append((node.lineno, "mp_context with a literal"))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id.endswith("_DPS"):
                        found.append((node.lineno, f"constant {sub.id}"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_keeps_its_boundaries(path):
    assert boundary_breaches(path.read_text(), path.stem) == []


@pytest.mark.parametrize("source", [
    "from qwave.qtransform import _plan_weights",
    "from qwave.qwavelet import spectrum, _spectrum_array as arr",
    "from .qtransform import _kernel_row",
    "from qwave import _private_module",
    "from qwave import qtransform\nx = qtransform._kernel_row",
    "import qwave.qbessel as qb\nx = qb._tables",
    "import qwave.qbessel\nx = qwave.qbessel._tables",
    "from qwave.qbessel import mp_context\nctx = mp_context(60)",
    "from qwave import qbessel\nctx = qbessel.mp_context(dps=60)",
    "def f(d):\n    return mp_context(d + 20)",
    "MOTHER_DPS = 300",
    "class A:\n    ROW_DPS: int = 60",
])
def test_guard_flags_each_breach(source):
    assert boundary_breaches(source, "qwavelet")


@pytest.mark.parametrize("source", [
    "from qwave.qbessel import MOTHER_DPS, mp_context\n"
    "ctx = mp_context(MOTHER_DPS)",
    "from qwave.qbessel import spectrum_dps\n"
    "def f(q, d):\n    return mp_context(spectrum_dps(q, d))",
    "import qwave\nv = qwave.__version__",
    "class A:\n    def f(self):\n        return self._mp_operands",
    "import numpy as np\nx = np._NoValue",
])
def test_guard_allows_the_table_and_own_names(source):
    assert boundary_breaches(source, "qwavelet") == []


def test_precision_home_may_set_digits():
    source = "KERNEL_DPS = 240\nctx = mp_context(60)\nx = _tables"
    assert boundary_breaches(source, PRECISION_HOME) == []
