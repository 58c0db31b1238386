"""Module boundaries of the library: qbessel is its one high-precision
layer and the one place that sets a working precision, no module
reaches into another module's private names, each kind of sum has one
home, the q-difference stencil has its two callers, WaveletPlane
builds its rows only through scale_rows, no module turns the per-row
transform into a block GEMM, parallel_map is the one place that starts
processes, qcli's _emit is the one place that writes to stdout, qgrid's
write_in_place the one place that opens a file for writing, and every
name the package exports has a caller."""

import ast
import functools
import operator
import os
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qwave"
PRECISION_HOME = "qbessel"
# The one home of each sum, as {function: {enclosing scope: calls}}: the
# gated plane integral, the exact dot product, which serves the
# transform sum and factorization_error's daughter sum, and its
# certified double-double twin, which serves the float transform.
SUM_HOMES = {
    "gated_scale_sum": {"qwavelet.WaveletPlane.integral": 1},
    "mp_dot": {"qtransform.TransformPlan.mp_transform": 1,
               "qwavelet.factorization_error": 1},
    "dd_dot": {"qtransform.TransformPlan.float_transform": 1},
}


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
    "from qwave.qwavelet import spectrum, _spectrum_mp as arr",
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


# Calls that make a process pool or a process: parallel_map alone may
# make them, so that there is one worker path and workers never nest.
PROCESS_CALLS = ("ProcessPoolExecutor", "Pool", "Process", "get_context",
                 "fork", "forkpty", "posix_spawn", "posix_spawnp")
PROCESS_HOME = "uncertainty.parallel_map"


def scoped_calls(source, module):
    """(call node, scope) for every call in source, scope being the dotted
    module.class.function path around it."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                calls.append((child, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(source), [module])
    return calls


def sum_calls(source, module, names=SUM_HOMES):
    """(line, function, scope) for every call of a function in names (the
    SUM_HOMES functions by default)."""
    calls = []
    for call, scope in scoped_calls(source, module):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name in names:
            calls.append((call.lineno, name, scope))
    return calls


def sum_breaches(source, module, homes=SUM_HOMES):
    """(line, what) for every call of a function in homes (SUM_HOMES by
    default) outside its homes or past the count a home allows, and
    every import that renames one."""
    found = []
    seen = Counter()
    for line, name, scope in sum_calls(source, module, homes):
        seen[name, scope] += 1
        if seen[name, scope] > homes[name].get(scope, 0):
            found.append((line, f"{name} called in {scope}"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in homes and alias.asname not in (
                        None, alias.name):
                    found.append((node.lineno, f"{alias.name} renamed"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_each_sum_stays_in_its_home(path):
    assert sum_breaches(path.read_text(), path.stem) == []


def test_each_home_holds_its_sum():
    seen = Counter((name, scope) for path in SRC.glob("*.py")
                   for _, name, scope in sum_calls(path.read_text(),
                                                   path.stem))
    assert seen == Counter({(name, scope): n
                            for name, homes in SUM_HOMES.items()
                            for scope, n in homes.items()})


@pytest.mark.parametrize("source,module", [
    ("total, _ = gated_scale_sum(contrib)", "qwavelet"),
    ("def wavelet_plancherel_ratio(plane):\n"
     "    return gated_scale_sum(contrib)", "qwavelet"),
    ("class WaveletPlane:\n    def integral(self, term):\n"
     "        gated_scale_sum(a)\n        return gated_scale_sum(b)",
     "qwavelet"),
    ("from qwave import qwavelet\nclass A:\n    def f(self):\n"
     "        return qwavelet.gated_scale_sum({})", "uncertainty"),
    ("def spectrum(f, plan):\n    return mp_dot(a, b, 53)", "qtransform"),
    ("def factorization_error():\n    def transform(w, s):\n"
     "        return mp_dot(w, s, 53)\n    return transform", "qwavelet"),
    ("def factorization_error():\n    a = mp_dot(x, y, 53)\n"
     "    return mp_dot(a, y, 53)", "qwavelet"),
    ("from qwave import qbessel\nx = qbessel.mp_dot(a, b, 53)", "qwavelet"),
    ("from qwave.qbessel import mp_dot as dot", "qwavelet"),
    ("def spectrum(f, plan):\n    return dd_dot(w, v, k, 1.0, 53)",
     "qtransform"),
    ("class TransformPlan:\n    def float_transform(self, values):\n"
     "        dd_dot(w, v, a, 1.0, 53)\n        return dd_dot(w, v, b, 1.0, 53)",
     "qtransform"),
])
def test_sum_guard_flags_each_breach(source, module):
    assert sum_breaches(source, module)


@pytest.mark.parametrize("source,module", [
    ("class WaveletPlane:\n    def integral(self, term):\n"
     "        return gated_scale_sum({m: term(r) for m, r in rows})",
     "qwavelet"),
    ("class TransformPlan:\n    def mp_transform(self, values, ss, dps):\n"
     "        return {s: mp_dot(a, b, 53) for s in ss}", "qtransform"),
    ("def mp_dot(A, B, prec):\n    return A", "qbessel"),
    ("from qwave.qbessel import mp_dot\n"
     "def factorization_error():\n    return mp_dot(a, b, 53)", "qwavelet"),
    ("class TransformPlan:\n    def float_transform(self, values):\n"
     "        return dd_round(*dd_dot(w, v, k, 1.0, 53))", "qtransform"),
])
def test_sum_guard_allows_the_homes(source, module):
    assert sum_breaches(source, module) == []


# The one home of the q-difference stencil, qbessel.q_bessel_operator:
# the operator mother, and the eigencheck's certified ratio, which
# carries the values, their error bounds and their magnitudes through
# it in one call.
STENCIL_HOMES = {"q_bessel_operator": {"qwavelet.operator_mother": 1,
                                       "qbessel.eigencheck_ratios": 1}}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_stencil_stays_in_its_homes(path):
    assert sum_breaches(path.read_text(), path.stem, STENCIL_HOMES) == []


def test_each_stencil_home_calls_it():
    seen = Counter((name, scope) for path in SRC.glob("*.py")
                   for _, name, scope in sum_calls(
                       path.read_text(), path.stem, STENCIL_HOMES))
    assert seen == Counter({(name, scope): n
                            for name, homes in STENCIL_HOMES.items()
                            for scope, n in homes.items()})


@pytest.mark.parametrize("source,module", [
    ("def cmd_bessel(cfg, args):\n"
     "    return qbessel.q_bessel_operator(ctx, q, v, rows)", "qcli"),
    ("def operator_mother(plan):\n    a = q_bessel_operator(c, q, v, r)\n"
     "    return q_bessel_operator(c, q, v, r)", "qwavelet"),
    ("def eigencheck_ratios(v, lam, grid):\n"
     "    a = q_bessel_operator(c, q, v, r)\n"
     "    return q_bessel_operator(c, q, v, a)", "qbessel"),
    ("def _kernel_enclosure(series, beta, x, roundings, at):\n"
     "    return q_bessel_operator(c, q, v, r)", "qbessel"),
    ("from qwave.qbessel import q_bessel_operator as stencil", "qcli"),
])
def test_stencil_guard_flags_each_breach(source, module):
    assert sum_breaches(source, module, STENCIL_HOMES)


def gate_functions(source):
    """Names of the functions whose body reads GATE_RUN or
    GATE_REL_TAIL: the gated scale sum, whatever it is called."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(sub, ast.Name)
                    and sub.id in ("GATE_RUN", "GATE_REL_TAIL")
                    for sub in ast.walk(node))}


def test_the_gate_is_a_guarded_sum():
    # renaming the gate cannot take it out of SUM_HOMES: the function
    # that walks with the gate constants is the one listed there
    gates = gate_functions((SRC / "qwavelet.py").read_text())
    assert gates == {name for name, homes in SUM_HOMES.items()
                     if homes == {"qwavelet.WaveletPlane.integral": 1}}
    for path in SRC.glob("*.py"):
        if path.stem != "qwavelet":
            assert gate_functions(path.read_text()) == set()


@pytest.mark.parametrize("source,gates", [
    ("def walk_scales(bounds, value):\n    return GATE_RUN", {"walk_scales"}),
    ("def gated_scale_sum(b, v):\n    def tail(t):\n"
     "        return GATE_REL_TAIL * t\n    return tail",
     {"gated_scale_sum", "tail"}),
    ("def gated_scale_sum(b, v):\n    return b", set()),
])
def test_gate_finder_sees_the_constants(source, gates):
    assert gate_functions(source) == gates


# WaveletPlane builds its coefficient rows only through scale_rows, so
# that one function holds the row arithmetic and the bound's premises.
ROW_HOME = "qwavelet.scale_rows"
MATRIX_PRODUCTS = ("dot", "matmul", "einsum", "vdot", "inner", "tensordot")
# the plan's products with its kernel: the transform, and the GEMVs
TRANSFORM_CALLS = ("fourier_values", "gemv")
PRODUCT_CALLS = TRANSFORM_CALLS + MATRIX_PRODUCTS
# the attributes that hold a plan's kernel matrix, scaled or not
MATRIX_ATTRS = ("matrix", "scaled_kernel")


def _call_name(func):
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def _is_matrix(node, aliases):
    """node reads a plan's matrix: x.matrix or x.scaled_kernel, or a name
    bound to one."""
    return (isinstance(node, ast.Attribute) and node.attr in MATRIX_ATTRS) \
        or (isinstance(node, ast.Name) and node.id in aliases)


def _is_transposed(node):
    return (isinstance(node, ast.Attribute) and node.attr in ("T", "mT")) \
        or (isinstance(node, ast.Call) and _call_name(node.func) in (
            "transpose", "swapaxes", "moveaxis"))


def gemm_breaches(source):
    """(line, what) for every matrix product that takes a block of rows
    through a plan's matrix as one GEMM: the matrix as the right operand
    (X @ M, np.matmul(X, M), np.dot(X, M), X.dot(M)), a transposed right
    operand (M @ X.T), or the matrix in einsum or tensordot. The
    transform of a block stays one GEMV per row, M @ x, since a GEMM
    rounds differently; a product that takes an (n, k) block as its
    right operand untransposed is beyond what the syntax shows."""
    tree = ast.parse(source)
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = zip(target.elts, node.value.elts) if isinstance(
                    target, ast.Tuple) and isinstance(node.value, ast.Tuple) \
                    else [(target, node.value)]
                aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                            and _is_matrix(v, set())}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Call) and _call_name(node.func) in \
                MATRIX_PRODUCTS:
            operands = list(node.args)
            if _call_name(node.func) in ("einsum", "tensordot"):
                if any(_is_matrix(arg, aliases) for arg in operands):
                    found.append((node.lineno, "the plan matrix in "
                                  f"{_call_name(node.func)}"))
                continue
            if isinstance(node.func, ast.Attribute) and _dotted(
                    node.func.value) not in ("np", "numpy"):
                operands.insert(0, node.func.value)  # left.dot(right)
        else:
            continue
        if len(operands) < 2:
            continue
        left, right = operands[:2]
        if _is_matrix(right, aliases) or (
                _is_matrix(left, aliases) and _is_transposed(right)):
            found.append((node.lineno, "block GEMM through the plan matrix"))
    return found


def row_breaches(source, module="qwavelet"):
    """(line, what) for every call of the transform (fourier_values) or
    of the plan's GEMVs (gemv) outside scale_rows, every block GEMM
    through a plan's matrix (gemm_breaches), and, inside WaveletPlane,
    every matrix product and every read of a plan's matrix."""
    found = [(call.lineno, f"{_call_name(call.func)} called in {scope}")
             for call, scope in scoped_calls(source, module)
             if _call_name(call.func) in TRANSFORM_CALLS
             and scope != ROW_HOME]
    found += gemm_breaches(source)
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef)
                and node.name == "WaveletPlane"):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
                found.append((sub.lineno, "matrix product in WaveletPlane"))
            elif isinstance(sub, ast.Attribute) and sub.attr in MATRIX_ATTRS:
                found.append((sub.lineno, "plan matrix read in WaveletPlane"))
            elif isinstance(sub, ast.Call) and _call_name(sub.func) in \
                    PRODUCT_CALLS:
                found.append((sub.lineno, "product call in WaveletPlane"))
    return found


def test_plane_builds_rows_through_scale_rows():
    source = (SRC / "qwavelet.py").read_text()
    assert row_breaches(source) == []
    calls = {scope for _, _, scope in sum_calls(source, "qwavelet",
                                                ("scale_rows",))}
    assert "qwavelet.WaveletPlane.rows" in calls


@pytest.mark.parametrize("source", [
    "class WaveletPlane:\n    def row(self, m):\n"
    "        return self.spec.plan.fourier_values(x)",
    "class WaveletPlane:\n    def row(self, m):\n"
    "        return self.spec.plan.matrix @ x",
    "class WaveletPlane:\n    def integral(self, term):\n"
    "        return np.dot(m, x)",
    "class WaveletPlane:\n    def row(self, m):\n"
    "        mat = self.spec.plan.matrix\n        return mat.dot(x)",
    "def _row(plane, m):\n    return plane.spec.plan.fourier_values(x)",
    # a block GEMM in place of one GEMV per row
    "def scale_rows(Ff, spec, ms):\n    return x @ spec.plan.matrix",
    "def scale_rows(Ff, spec, ms):\n    M = spec.plan.matrix\n"
    "    return X @ M",
    "def scale_rows(Ff, spec, ms):\n    M, n = spec.plan.matrix, 3\n"
    "    return np.matmul(X, M)",
    "def scale_rows(Ff, spec, ms):\n    return np.dot(X, spec.plan.matrix)",
    "def scale_rows(Ff, spec, ms):\n    return X.dot(spec.plan.matrix)",
    "def scale_rows(Ff, spec, ms):\n    return spec.plan.matrix @ X.T",
    "def scale_rows(Ff, spec, ms):\n"
    "    return np.dot(spec.plan.matrix, np.transpose(X))",
    "def scale_rows(Ff, spec, ms):\n"
    "    return np.einsum('ij,kj->ki', spec.plan.matrix, X)",
    "class TransformPlan:\n    def block(self, X):\n"
    "        return (self.weights * X) @ self.matrix",
    # the same through the scaled kernel, or the GEMVs outside scale_rows
    "def scale_rows(Ff, spec, ms):\n    return x @ spec.plan.scaled_kernel",
    "class TransformPlan:\n    def block(self, X):\n"
    "        return np.matmul(X, self.scaled_kernel)",
    "class WaveletPlane:\n    def row(self, m):\n"
    "        return self.spec.plan.scaled_kernel[m]",
    "def _row(plane, m):\n    return plane.spec.plan.gemv(x)",
])
def test_row_guard_flags_each_breach(source):
    assert row_breaches(source)


@pytest.mark.parametrize("source", [
    "def scale_rows(Ff, spec, ms):\n    return spec.plan.fourier_values(x)",
    "class WaveletPlane:\n    def row(self, m):\n"
    "        return scale_rows(self.Ff, self.spec, (m,))[0]",
    "def _scale_bounds(plane, d):\n    return x @ cols",
    "def scale_rows(Ff, spec, ms):\n    for i in range(k):\n"
    "        np.dot(spec.plan.matrix, x[i], out=rows[i])",
    # one GEMV per stacked (n, 1) column
    "def scale_rows(Ff, spec, ms):\n"
    "    return np.matmul(spec.plan.matrix, x[:, :, None])[:, :, 0]",
    "def scale_rows(Ff, spec, ms):\n    M = spec.plan.matrix\n"
    "    return [M @ x for x in X]",
    "class TransformPlan:\n    def fourier_values(self, values):\n"
    "        return self.matrix @ (self.weights * values)",
    "def scale_rows(Ff, spec, ms):\n    return spec.plan.gemv(x)",
    "class TransformPlan:\n    def gemv(self, x):\n"
    "        return np.matmul(self.scaled_kernel, x[..., None])[..., 0]",
])
def test_row_guard_allows_scale_rows(source):
    assert row_breaches(source) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_block_gemm_through_the_matrix(path):
    assert gemm_breaches(path.read_text()) == []


def process_breaches(source, module):
    """(line, what) for every call that makes a process pool or a
    process outside parallel_map, and every import that renames such a
    function."""
    found = [(line, f"{name} called in {scope}")
             for line, name, scope in sum_calls(source, module,
                                                PROCESS_CALLS)
             if scope != PROCESS_HOME]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.split(".")[-1] in PROCESS_CALLS and \
                        alias.asname not in (None, alias.name):
                    found.append((node.lineno, f"{alias.name} renamed"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_processes_start_only_in_parallel_map(path):
    assert process_breaches(path.read_text(), path.stem) == []


def test_parallel_map_makes_the_pool():
    calls = [(name, scope) for path in SRC.glob("*.py")
             for _, name, scope in sum_calls(path.read_text(), path.stem,
                                             PROCESS_CALLS)]
    assert ("ProcessPoolExecutor", PROCESS_HOME) in calls


@pytest.mark.parametrize("source,module", [
    ("import os\npid = os.fork()", "qwavelet"),
    ("def probe_reports(probes, spec):\n"
     "    with ProcessPoolExecutor(2) as pool:\n"
     "        return list(pool.map(f, probes))", "uncertainty"),
    ("import multiprocessing\n"
     "def run():\n    return multiprocessing.Pool(2)", "qcli"),
    ("from multiprocessing import get_context\n"
     "ctx = get_context('fork')", "qcli"),
    ("import multiprocessing\n"
     "p = multiprocessing.Process(target=print)", "qbessel"),
    ("def parallel_map(fn, items):\n"
     "    def inner():\n        return os.fork()\n    return inner",
     "uncertainty"),
    ("from concurrent.futures import ProcessPoolExecutor as Executor",
     "uncertainty"),
    ("from os import fork as spawn_copy", "qcli"),
    ("import os\npid, fd = os.forkpty()", "qcli"),
    ("import os\npid = os.posix_spawn('/bin/true', ['true'], {})",
     "qbessel"),
    ("import os\ndef probe_reports(probes, spec):\n"
     "    return os.posix_spawnp('true', ['true'], {})", "uncertainty"),
])
def test_process_guard_flags_each_breach(source, module):
    assert process_breaches(source, module)


@pytest.mark.parametrize("source,module", [
    ("def parallel_map(fn, items):\n"
     "    import multiprocessing\n"
     "    ctx = multiprocessing.get_context('fork')\n"
     "    with ProcessPoolExecutor(2, mp_context=ctx) as pool:\n"
     "        yield from pool.map(fn, items)", "uncertainty"),
    ("from concurrent.futures import ProcessPoolExecutor", "uncertainty"),
    ("def probe_reports(probes, spec):\n"
     "    return list(parallel_map(f, probes, (spec,)))", "uncertainty"),
])
def test_process_guard_allows_parallel_map(source, module):
    assert process_breaches(source, module) == []



# The library's two writers: qcli's _emit makes every stdout write, and
# qgrid's write_in_place opens every file written, so an unwritable
# path has one handler and every rewrite keeps the file's links and mode.
STDOUT_HOME = "qcli._emit"
FILE_HOME = "qgrid.write_in_place"
# os.open flags that open for writing, and their bits
WRITE_FLAGS = ("O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND")
WRITE_BITS = functools.reduce(operator.or_,
                              (getattr(os, f) for f in WRITE_FLAGS))


def _writes_with_flags(flags):
    """flags, an os.open flags expression, may open for writing: it
    names a write flag, holds an int with a write bit set, or holds any
    other name or call, whose value the syntax does not show."""
    for sub in ast.walk(flags):
        if isinstance(sub, ast.Constant):
            if not isinstance(sub.value, int) or sub.value & WRITE_BITS:
                return True
        elif isinstance(sub, ast.Attribute):
            if sub.attr in WRITE_FLAGS or not sub.attr.startswith("O_"):
                return True
        elif isinstance(sub, (ast.Name, ast.Call)):
            if not (isinstance(sub, ast.Name) and sub.id == "os"):
                return True
    return False


def output_write(call):
    """(kind, what) if call writes to stdout (kind "stdout") or opens a
    file for writing (kind "file"), else None. open, io.open and
    os.fdopen open for writing with a mode holding w, a, x or +, or a
    mode that is not a literal; os.open with write flags
    (_writes_with_flags)."""
    func = _dotted(call.func) or ""
    if func == "print" or func.startswith("sys.stdout."):
        return "stdout", func
    if func.rpartition(".")[2] in ("write_text", "write_bytes"):
        return "file", func
    if func in ("open", "io.open", "os.fdopen"):
        modes = call.args[1:2] + [kw.value for kw in call.keywords
                                  if kw.arg == "mode"]
        if modes and not (isinstance(modes[0], ast.Constant)
                          and set(str(modes[0].value)).isdisjoint("wax+")):
            return "file", f"{func} for writing"
    if func == "os.open":
        flags = call.args[1:2] + [kw.value for kw in call.keywords
                                  if kw.arg == "flags"]
        if not flags or _writes_with_flags(flags[0]):
            return "file", "os.open for writing"
    return None


def write_breaches(source, module="qcli"):
    """(line, what) for every stdout write outside qcli's _emit and
    every file opened for writing outside qgrid's write_in_place."""
    homes = {"stdout": STDOUT_HOME, "file": FILE_HOME}
    found = []
    for call, scope in scoped_calls(source, module):
        write = output_write(call)
        if write and scope != homes[write[0]]:
            found.append((call.lineno, f"{write[1]} in {scope}"))
    return found


def home_writes(module):
    """What each call in a module's writer homes writes."""
    path = SRC / f"{module}.py"
    return {output_write(call)[1]
            for call, scope in scoped_calls(path.read_text(), module)
            if scope in (STDOUT_HOME, FILE_HOME) and output_write(call)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_writes_only_in_the_writers(path):
    assert write_breaches(path.read_text(), path.stem) == []


def test_qcli_writes_only_in_emit():
    # _emit writes stdout itself and hands every file to write_in_place
    assert write_breaches((SRC / "qcli.py").read_text()) == []
    assert home_writes("qcli") == {"sys.stdout.write"}
    calls = {scope for _, _, scope in sum_calls(
        (SRC / "qcli.py").read_text(), "qcli", ("write_in_place",))}
    assert calls == {STDOUT_HOME}


def test_write_in_place_opens_every_written_file():
    assert home_writes("qgrid") == {"os.open for writing"}


@pytest.mark.parametrize("source", [
    "import sys\ndef cmd_verify(cfg, args):\n    sys.stdout.write('x')",
    "def cmd_grid(cfg, args):\n    print('n,x,weight')",
    "def f(p):\n    with open(p, 'w') as fh:\n        fh.write('x')",
    "def f(p):\n    open(p, mode='a').close()",
    "def f(p, m):\n    open(p, m)",
    "import io\ndef f(p):\n    io.open(p, 'r+')",
    "def f(p):\n    p.write_text('x')",
    "import sys\nsys.stdout.writelines(['x'])",
    "class A:\n    def _emit(self, text):\n        sys.stdout.write(text)",
    "def _emit(text):\n    def later():\n        sys.stdout.write(text)\n"
    "    return later",
    # _emit writes stdout only; a file it opens itself is a breach
    "def _emit(text, out_path):\n    with open(out_path, 'w') as fh:\n"
    "        fh.write(text)",
    "import os\ndef _emit(text, out_path):\n"
    "    os.open(out_path, os.O_WRONLY | os.O_CREAT)",
    "import os\ndef f(p):\n    os.open(p, os.O_RDWR)",
    "import os\ndef f(p):\n    return os.open(p, flags=os.O_APPEND | 1)",
    "import os\ndef f(p, fl):\n    os.open(p, fl)",
    "import os\ndef f(p):\n    os.open(p, 0o101)",
    "import os\ndef f(fd):\n    return os.fdopen(fd, 'wb')",
])
def test_writer_guard_flags_each_breach(source):
    assert write_breaches(source)


@pytest.mark.parametrize("source,module", [
    ("def write_in_place(path, text):\n    open(path, 'w')", "qcli"),
    ("def _emit(text, out_path):\n    sys.stdout.write(text)", "qgrid"),
    ("def write_function(f, path):\n"
     "    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)", "qgrid"),
    ("def write_function(f, path):\n    with open(path, 'w') as fh:\n"
     "        fh.write(text)", "qgrid"),
    ("def _run(x):\n    print(x)", "uncertainty"),
])
def test_writer_guard_flags_breaches_in_every_module(source, module):
    assert write_breaches(source, module)


@pytest.mark.parametrize("source", [
    "import sys\ndef _emit(text, out_path=None):\n    if not out_path:\n"
    "        sys.stdout.write(text)\n        return\n"
    "    write_in_place(out_path, text)",
    "def f(p):\n    with open(p, encoding='utf-8') as fh:\n"
    "        return fh.read()",
    "def f(p):\n    return open(p, 'r').read()",
    "import sys\ndef main():\n    sys.stderr.write('qwave: bad\\n')",
    "def cmd_fourier(g, path):\n    write_function(g, path)",
    "import os\ndef f(p):\n    return os.open(p, os.O_RDONLY | os.O_CLOEXEC)",
    "import os\ndef f(p):\n    return os.open(p, 0)",
])
def test_writer_guard_allows_emit_and_reads(source):
    assert write_breaches(source) == []


@pytest.mark.parametrize("source", [
    "import os\ndef write_in_place(path, text, opened=None):\n"
    "    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)",
    "def write_in_place(path, text):\n"
    "    with open(path, 'w', encoding='utf-8') as fh:\n"
    "        fh.write(text)",
])
def test_writer_guard_allows_the_file_home(source):
    assert write_breaches(source, "qgrid") == []


# Every name the package exports is called somewhere in the library or
# bench/, outside its own definition and __init__.py: the product's
# callers define the public surface. The exceptions are the reference
# definitions that tests compare the fast routes against.
CALLER_DIRS = (SRC, SRC.parent.parent / "bench")
REFERENCE_ONLY = {"cwt_direct"}


def exported_names(source):
    """The names an __init__ source imports from its modules."""
    return {alias.asname or alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def referenced_names(source, names):
    """The members of names that source reads, as a name or as an
    attribute, outside the top-level definition of the same name.
    Importing a name is not reading it."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (
                    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            name = child.id if isinstance(child, ast.Name) else \
                getattr(child, "attr", None)
            if name in names and name != inner:
                found.add(name)
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_every_export_has_a_caller():
    names = exported_names((SRC / "__init__.py").read_text())
    assert REFERENCE_ONLY <= names
    called = set()
    for folder in CALLER_DIRS:
        for path in folder.rglob("*.py"):
            if path != SRC / "__init__.py":
                called |= referenced_names(path.read_text(), names)
    assert names - called - REFERENCE_ONLY == set()


@pytest.mark.parametrize("source,found", [
    ("def f():\n    return g()", {"g"}),
    ("x = qgrid.g", {"g"}),
    ("def g(n):\n    return g(n - 1)", set()),
    ("class g:\n    def h(self):\n        return g()", set()),
    ("from qwave.qgrid import g", set()),
    ("def f():\n    def g():\n        pass\n    return g", {"g"}),
])
def test_caller_finder_skips_the_own_definition(source, found):
    assert referenced_names(source, {"g", "h"}) == found
