"""Acceptance gate: every quantitative claim the library makes, checked
on the full parameter lattice q in {0.3, 0.5, 0.7} crossed with
v in {(0,0), (0.5,0.25), (1,-0.25)} on the default grid [-20, 40].

Each cell runs the verification suite once (module-scoped fixture); the
tests then hold the individual checks to their pinned tolerances and pin
the cell's computed constants against values frozen from a verified
high-precision run. Two tests rerun the CLI: twice on one cell,
demanding byte-identical output, and once on the whole lattice,
demanding the report the benchmark pins. The rest pin the other two
benchmark workloads: the transform stream's seed-0 digest, and the
uncertainty sweep's nine K_emp with the work its probes do, run once
(module-scoped fixture)."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwave
from qwave import qwavelet
from qwave.qgrid import BesselParams, build_grid
from qwave.qtransform import TransformPlan, make_plan
from qwave.qwavelet import operator_mother
from qwave.uncertainty import empirical_lower_constant, probe_family
from qwave.verify import run_cell_checks

from conftest import plan_kernel, rel_err, set_cpus

CELLS = [(q, a, b)
         for q in (0.3, 0.5, 0.7)
         for a, b in ((0.0, 0.0), (0.5, 0.25), (1.0, -0.25))]

# (c_qv, admissibility, K_emp, min slice ratio) per cell, frozen from a
# verified run; guards against silent numerical regressions
FROZEN = {
    (0.3, 0.0, 0.0): (1.4285714285714286, 0.031381190507643146,
                      0.3406470336786589, 1.3340870923841484),
    (0.3, 0.5, 0.25): (1.2891545206935775, 1.854929852620215,
                       2.0762414231899764, 1.1131326963711226),
    (0.3, 1.0, -0.25): (1.355998508066606, 11.26124412615323,
                        3.5213551066400455, 1.0081343730622767),
    (0.5, 0.0, 0.0): (2.0, 0.19937694704049844,
                      0.8145548349683932, 1.1596069810768397),
    (0.5, 0.5, 0.25): (2.065069716791021, 1.1959093264360605,
                       1.7740513278267915, 0.982434825612178),
    (0.5, 1.0, -0.25): (2.508517075491613, 3.2471647699594355,
                        2.0836483605125644, 0.9742770764808591),
    (0.7, 0.0, 0.0): (3.333333333336036, 0.4759054270475743,
                      1.1889278117460116, 0.9439995826768891),
    (0.7, 0.5, 0.25): (4.039738586689129, 0.9337206147457973,
                       1.6043425850339357, 0.937927860201878),
    (0.7, 1.0, -0.25): (6.846589983920342, 1.6494155729932691,
                        1.7499784234767306, 0.7375053672499314),
}


@pytest.fixture(scope="module", params=CELLS,
                ids=lambda c: f"q{c[0]}_a{c[1]}_b{c[2]}")
def cell(request):
    q, alpha, beta = request.param
    report = run_cell_checks(q, alpha, beta, -20, 40)
    plan = make_plan(build_grid(q, -20, 40), BesselParams(alpha, beta))
    spec = operator_mother(plan)
    return request.param, report, spec


def check(report, name):
    for entry in report["checks"]:
        if entry["name"] == name:
            return entry
    raise AssertionError(f"no check named {name}")


def test_jackson_power_rule(cell):
    _, report, _ = cell
    entry = check(report, "jackson-power-rule")
    assert entry["passed"]
    assert entry["max_rel_err"] < 1e-12


def test_q_derivative_power_rule(cell):
    _, report, _ = cell
    entry = check(report, "q-derivative-power-rule")
    assert entry["passed"]
    assert entry["max_rel_err"] < 1e-12


def test_dilation_change_of_variables(cell):
    _, report, _ = cell
    entry = check(report, "change-of-variables")
    assert entry["passed"]
    assert entry["max_rel_err"] < 1e-12


def test_transform_involution_and_calibration_stability(cell):
    _, report, _ = cell
    entry = check(report, "fourier-involution")
    assert entry["passed"]
    assert entry["residual"] < 1e-6
    assert entry["c_drift"] < 1e-3


def test_daughter_spectrum_factorization(cell):
    _, report, _ = cell
    entry = check(report, "daughter-factorization")
    assert entry["passed"]
    assert entry["max_rel_err"] < 1e-8


def test_weighted_energy_constant_across_probes(cell):
    _, report, _ = cell
    entry = check(report, "weighted-energy-identity")
    assert entry["passed"]
    assert entry["spread"] < 1e-6
    assert entry["kappa"] > 0.0
    assert entry["C_v_psi"] > 0.0


def test_plancherel_ratio_input_independent(cell):
    _, report, _ = cell
    entry = check(report, "plancherel-ratio")
    assert entry["passed"]
    assert entry["spread"] < 1e-6
    assert entry["refinement_drift"] < 1e-2
    assert entry["q_power_C"] > 0.0


def test_heisenberg_slice_bound(cell):
    _, report, _ = cell
    entry = check(report, "heisenberg-slices")
    assert entry["passed"]
    assert entry["min_slice"] >= 0.5 - 1e-3


def test_uncertainty_constant(cell):
    _, report, _ = cell
    entry = check(report, "uncertainty-constant")
    assert entry["passed"]
    assert entry["K_emp"] > 0.0
    assert entry["refinement_drift"] < 1e-2
    assert entry["scale_invariance_err"] < 1e-13


def test_whole_cell_passes(cell):
    _, report, _ = cell
    assert report["passed"] is True


def test_pinned_cell_constants(cell):
    params, report, spec = cell
    c_ref, adm_ref, k_ref, slice_ref = FROZEN[params]
    assert rel_err(check(report, "fourier-involution")["c_qv"], c_ref) < 1e-9
    assert rel_err(spec.admissibility, adm_ref) < 1e-9
    assert rel_err(check(report, "uncertainty-constant")["K_emp"], k_ref) < 1e-9
    assert rel_err(check(report, "heisenberg-slices")["min_slice"],
                   slice_ref) < 1e-9


def child_env():
    """This process's environment, with the package's source directory
    first on PYTHONPATH, so a child finds the qwave under test from a
    checkout too."""
    src = str(Path(qwave.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_verify_is_byte_deterministic(tmp_path):
    def one_run(tag):
        out = tmp_path / f"report_{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qwave.qcli", "verify", "--q", "0.5",
             "--alpha", "0", "--beta", "0", "--out", str(out)],
            capture_output=True, env=child_env())
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout, out.read_bytes()

    stdout_a, file_a = one_run("a")
    stdout_b, file_b = one_run("b")
    assert stdout_a == stdout_b
    assert file_a == file_b
    assert b"verify: PASS" in stdout_a


REFERENCES = Path(__file__).resolve().parent.parent / "bench" / "references.json"


def test_full_lattice_report_matches_benchmark_reference(tmp_path):
    want = json.loads(REFERENCES.read_text())["verify-lattice"]["sha256"]
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qwave.qcli", "verify", "--out", str(out)],
        capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_stream_matches_benchmark_reference(tmp_path):
    # the transform-stream workload's seed-0 run: 7 passes over its 30
    # seeded inputs, whose written transforms, sidecars and wavelet
    # coefficients check() hashes against the recorded digest
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REFERENCES.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    stream = workloads.TransformStream()
    stream.setup(0, tmp_path)
    ops, passes = stream.run(0)
    detail, ok = stream.check()
    assert (len(ops), passes) == (210, 7)
    assert all(op.ok for op in ops)
    want = json.loads(REFERENCES.read_text())["transform-stream"]
    assert want["seed"] == 0
    assert detail["digest"] == want["digest"]
    assert ok


# K_emp at q = 0.3 on the sweep grid. The benchmark reference still
# reads "nan" there, from before the deep-grid position moment was made
# overflow-safe, and its gate accepts any finite positive K_emp.
SWEEP_DEEP = {"0.3,0,0": "0.34064703367865895",
              "0.3,0.5,0.25": "2.0762414231899764",
              "0.3,1,-0.25": "3.5213551066400464"}


@pytest.fixture(scope="module")
def sweep_run():
    """The nine cells of `qwave uncertainty --sweep` on [-160, 320],
    each built the way the sweep builds it, with the 81 probe planes
    run in this process so that their work can be counted: the rows
    scale_rows builds and its calls, the gate's batches and the rows it
    sums, and the spectrum outputs of the mothers and of the probes that
    take the exact route (mp_transform). Every row is compared, bit for
    bit, with the same steps through np.dot and the kernel itself, and
    each cell's plan takes one operand forced near overflow. Returns
    each cell's K_emp as the 17 digits the sweep reports, the
    probe-scale count, the counts and the GEMV comparisons."""
    counts = dict.fromkeys(("rows", "calls", "batches", "summed"), 0)
    gemv = dict.fromkeys(("rows", "differ", "forced"), 0)
    kernel = {}
    scale_rows = qwavelet.scale_rows
    gated_scale_sum = qwavelet.gated_scale_sum

    def unscaled(plan):
        if kernel.get("plan") is not plan:
            kernel.update(plan=plan, M=plan_kernel(plan))
        return kernel["M"]

    def counted_rows(Ff, spec, scale_indices=None):
        rows = scale_rows(Ff, spec, scale_indices)
        counts["rows"] += len(rows)
        counts["calls"] += 1
        plan = spec.plan
        block = np.array(scale_indices) - spec.scale_indices[0]
        x = spec.windows[block] * Ff[None]
        x *= plan.weights[None]
        want = np.empty_like(x)
        for xi, wi in zip(x, want):
            np.dot(unscaled(plan), xi, out=wi)
        want *= plan.c_qv
        want *= spec.roots[block, None]
        gemv["rows"] += len(rows)
        gemv["differ"] += sum(a.tobytes() != b.tobytes()
                              for a, b in zip(rows, want))
        return rows

    def forced_overflow(spec):
        # an operand whose entry j, times 2^k_j, overflows: the scaled
        # kernel alone would give other bits than the kernel itself
        plan = spec.plan
        M, k = unscaled(plan), plan.kernel_exponents
        x = spec.profile[:plan.grid.size] * plan.weights
        j = int(np.argmax(k))
        x[j] = -np.ldexp(1.0, 1024 - int(k[j]))
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.dot(M, x)
            scaled_only = np.dot(plan.scaled_kernel, np.ldexp(x, k))
            got = plan.gemv(x)
        return got.tobytes() == want.tobytes() != scaled_only.tobytes()

    def counted_gate(bounds, contributions):
        def batch(ms):
            counts["batches"] += 1
            return contributions(ms)
        total, used = gated_scale_sum(bounds, batch)
        counts["summed"] += len(used)
        return total, used

    # spectrum outputs that take the exact route, by part
    exact = {"mothers": 0, "probes": 0}
    mp_transform = TransformPlan.mp_transform

    def counted_exact(self, values, s_lo, s_hi, dps):
        exact[part] += max(0, s_hi - s_lo + 1)
        return mp_transform(self, values, s_lo, s_hi, dps)

    scales = 0
    got = {}
    with pytest.MonkeyPatch.context() as mp:
        set_cpus(mp, 1)
        mp.setattr(qwavelet, "scale_rows", counted_rows)
        mp.setattr(qwavelet, "gated_scale_sum", counted_gate)
        mp.setattr(TransformPlan, "mp_transform", counted_exact)
        for q, alpha, beta in CELLS:
            part = "mothers"
            plan = make_plan(build_grid(q, -160, 320),
                             BesselParams(alpha, beta))
            spec = operator_mother(plan)
            part = "probes"
            probes = probe_family(plan)
            K = empirical_lower_constant(probes, spec)
            got[f"{q:g},{alpha:g},{beta:g}"] = "%.17g" % K
            scales += len(probes) * len(spec.scale_indices)
            gemv["forced"] += forced_overflow(spec)
    return got, scales, counts, exact, gemv


def test_sweep_counts_and_constants(sweep_run):
    # a change to the gate, to the plane's rows or to its block size,
    # or to the certificate, moves a count; a change to any bit of a
    # K_emp moves its 17 digits
    got, scales, counts, exact, _ = sweep_run
    sweep = json.loads(REFERENCES.read_text())["uncertainty-sweep"]
    assert sweep["grid"] == [-160, 320]
    assert got == {**sweep["K_emp"], **SWEEP_DEEP}
    assert scales == 38637
    assert counts == {"rows": 7481, "calls": 227, "batches": 162,
                      "summed": 7128}
    assert exact == {"mothers": 5512, "probes": 5454}


def test_sweep_rows_equal_the_unscaled_gemvs(sweep_run):
    # on all nine cells, every row the sweep builds through the plan's
    # column-scaled kernel has the bits of np.dot with the kernel
    # itself, signs of zero included, and an operand forced near
    # overflow takes the kernel itself and matches too
    assert sweep_run[4] == {"rows": 7481, "differ": 0, "forced": 9}


def test_sweep_shifted_cell_matches_benchmark_reference(sweep_run):
    sweep = json.loads(REFERENCES.read_text())["uncertainty-sweep"]
    assert sweep["grid"] == [-160, 320]
    assert sweep_run[0]["0.5,1,-0.25"] == sweep["K_emp"]["0.5,1,-0.25"]


@pytest.mark.parametrize("cell_id", SWEEP_DEEP, ids=str)
def test_sweep_deep_cell_pinned(sweep_run, cell_id):
    assert sweep_run[0][cell_id] == SWEEP_DEEP[cell_id]
