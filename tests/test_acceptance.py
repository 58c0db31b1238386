"""Acceptance gate: every quantitative claim the library makes, checked
on the full parameter lattice q in {0.3, 0.5, 0.7} crossed with
v in {(0,0), (0.5,0.25), (1,-0.25)} on the default grid [-20, 40].

Each cell runs the verification suite once (module-scoped fixture); the
tests then hold the individual checks to their pinned tolerances and pin
the cell's computed constants against values frozen from a verified
high-precision run. The last two tests rerun the CLI: twice on one
cell, demanding byte-identical output, and once on the whole lattice,
demanding the report the benchmark pins."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qwave.qcli import run_cell_checks
from qwave.qgrid import BesselParams, build_grid
from qwave.qtransform import make_plan
from qwave.qwavelet import operator_mother
from qwave.uncertainty import empirical_lower_constant, probe_family

from conftest import rel_err

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
    report = run_cell_checks(q, alpha, beta)
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


def test_verify_is_byte_deterministic(tmp_path):
    def one_run(tag):
        out = tmp_path / f"report_{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qwave.qcli", "verify", "--q", "0.5",
             "--alpha", "0", "--beta", "0", "--out", str(out)],
            capture_output=True, env=dict(os.environ))
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
        capture_output=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def sweep_constant(q, alpha, beta):
    """K_emp on the sweep grid [-160, 320], built the way
    `qwave uncertainty --sweep` builds it, as the 17 digits it reports."""
    plan = make_plan(build_grid(q, -160, 320), BesselParams(alpha, beta))
    K = empirical_lower_constant(probe_family(plan), operator_mother(plan))
    return "%.17g" % K


def test_sweep_shifted_cell_matches_benchmark_reference():
    sweep = json.loads(REFERENCES.read_text())["uncertainty-sweep"]
    assert sweep["grid"] == [-160, 320]
    assert sweep_constant(0.5, 1.0, -0.25) == sweep["K_emp"]["0.5,1,-0.25"]


@pytest.mark.parametrize("alpha,beta,want", [
    (0.0, 0.0, "0.34064703367865895"),
    (0.5, 0.25, "2.0762414231899764"),
    (1.0, -0.25, "3.5213551066400464"),
], ids=("0.3,0,0", "0.3,0.5,0.25", "0.3,1,-0.25"))
def test_sweep_deep_cell_pinned(alpha, beta, want):
    # the benchmark reference still reads "nan" at q = 0.3, from before
    # the deep-grid position moment was made overflow-safe, and its gate
    # accepts any finite positive K_emp there
    assert sweep_constant(0.3, alpha, beta) == want
