"""The suite behind ``qwave verify``: nine of the paper's identities,
measured on one (q, v) cell and held to limits written only in _CHECKS.
A row there is a check's name, a measure function returning its measured
values as a dict, and its limits, each (measured key, limit key or None,
test, value). run_cell_checks alone decides pass or fail: a check passes
where test(measured[key], value) holds for each limit, so a nan fails."""

import math
from operator import ge, gt, lt

import numpy as np

from qwave.qgrid import (BesselParams, GridFunction, build_grid, dilate,
                         jackson_integral, q_derivative)
from qwave.qtransform import make_plan
from qwave.qwavelet import (WaveletPlane, factorization_error,
                            operator_mother, wavelet_plancherel_ratio)
from qwave.uncertainty import (heisenberg_slice_minimum, probe_family,
                               uncertainty_report, weighted_energy_ratio)

ACCEPTANCE_Q = (0.3, 0.5, 0.7)
ACCEPTANCE_V = ((0.0, 0.0), (0.5, 0.25), (1.0, -0.25))


class _Cell:
    """Plans, wavelets and probe families for one (q, v) cell, keyed by
    grid factor 4, 2, 1, and the probe planes at factors 1 and 2: all
    built once, when the cell is constructed. A plane keeps its rows and
    its position moment, so the checks that read a plane share them."""

    def __init__(self, q, alpha, beta, n_low, n_high):
        self.q = q
        self.v = BesselParams(alpha, beta)
        # The x4 plan first: its kernel table then covers the index sums
        # of the x2 and x1 plans, so the cell builds one table.
        self.plans = {k: make_plan(build_grid(q, k * n_low, k * n_high),
                                   self.v) for k in (4, 2, 1)}
        self.specs = {k: operator_mother(p) for k, p in self.plans.items()}
        self.probes = {k: probe_family(p) for k, p in self.plans.items()}
        self.planes = {k: [WaveletPlane(f, self.specs[k])
                           for f in self.probes[k]] for k in (1, 2)}


def _jackson_power(cell):
    # jackson_integral over [0, 1] sums its own depth and reads only
    # grid.q, so a one-point grid serves every q
    q = cell.q
    grid = build_grid(q, 0, 0)
    got = [jackson_integral(lambda x: x ** k, grid, 0.0, 1.0)
           for k in range(9)]
    want = [(1.0 - q) / (1.0 - q ** (k + 1)) for k in range(9)]
    return {"max_rel_err": float(np.max(np.abs(np.divide(got, want) - 1.0)))}


def _q_derivative(cell):
    grid, q = cell.plans[1].grid, cell.q
    errs = []
    for k in range(1, 9):
        d = q_derivative(GridFunction(grid, grid.points ** float(k)))
        bracket = (1.0 - q ** k) / (1.0 - q)
        errs.append(d.values / (bracket * d.grid.points ** float(k - 1)))
    return {"max_rel_err": float(np.max(np.abs(np.array(errs) - 1.0)))}


def _change_of_variables(cell):
    grid, q = cell.plans[1].grid, cell.q
    probes = [GridFunction.from_pairs(grid, [(0, 1.0)]),
              GridFunction.from_pairs(grid, [(-1, 1.0), (2, -1.0)]),
              GridFunction.from_pairs(
                  grid, [(n, q ** (2.0 * n)) for n in range(-2, 5)])]

    def integral(g):
        return (1.0 - q) * math.fsum(g.values * grid.points)

    ratios = [integral(dilate(f, m)) / (q ** m * integral(f))
              for f in probes for m in range(-2, 4)]
    return {"max_rel_err": float(np.max(np.abs(np.array(ratios) - 1.0)))}


def _involution(cell):
    plan = cell.plans[1]
    c_fine = cell.plans[2].c_qv
    return {"residual": plan.involution_residual(cell.probes[1]),
            "c_qv": plan.c_qv, "c_refined": c_fine,
            "c_drift": abs(c_fine / plan.c_qv - 1.0)}


def _factorization(cell):
    spec = cell.specs[1]
    mid = len(spec.scale_indices) // 2
    sample = spec.scale_indices[mid - 2: mid + 3]
    return {"max_rel_err": factorization_error(
        spec, sample, (-2, 0, 1, 2, 4), range(-10, 11))}


def _weighted_energy(cell):
    kappas = np.array([weighted_energy_ratio(p) for p in cell.planes[2]])
    kappa = float(kappas[0])
    C = cell.specs[2].admissibility
    return {"kappa": kappa,
            "spread": float(np.max(np.abs(kappas / kappa - 1.0))),
            "C_v_psi": C, "kappa_over_C": kappa / C}


def _plancherel(cell):
    ratios = np.array([wavelet_plancherel_ratio(p) for p in cell.planes[2]])
    ratio = float(ratios[0])
    fine = wavelet_plancherel_ratio(
        WaveletPlane(cell.probes[4][0], cell.specs[4]))
    C = cell.specs[2].admissibility
    return {"ratio": ratio,
            "spread": float(np.max(np.abs(ratios / ratio - 1.0))),
            "C_v_psi": C, "ratio_over_C": ratio / C,
            "q_power_C": cell.q ** (4.0 * cell.v.abs_v + 2.0) * C,
            "refinement_drift": abs(fine / ratio - 1.0)}


def _heisenberg(cell):
    return {"min_slice": float(np.min([heisenberg_slice_minimum(p)
                                       for p in cell.planes[1]]))}


def _uncertainty(cell):
    reports = [uncertainty_report(p) for p in cell.planes[1]]
    K = float(np.min([r.ratio for r in reports]))
    fine = float(np.min([uncertainty_report(p).ratio
                         for p in cell.planes[2]]))
    scaled = WaveletPlane(cell.probes[1][0].scaled(7.0), cell.specs[1])
    return {"K_emp": K, "K_refined": fine,
            "refinement_drift": abs(fine / K - 1.0),
            "scale_invariance_err": abs(
                uncertainty_report(scaled).ratio / reports[0].ratio - 1.0)}


_CHECKS = (
    ("jackson-power-rule", _jackson_power,
     (("max_rel_err", "tol", lt, 1e-12),)),
    ("q-derivative-power-rule", _q_derivative,
     (("max_rel_err", "tol", lt, 1e-12),)),
    ("change-of-variables", _change_of_variables,
     (("max_rel_err", "tol", lt, 1e-12),)),
    ("fourier-involution", _involution,
     (("residual", "tol_residual", lt, 1e-6),
      ("c_drift", "tol_drift", lt, 1e-3))),
    ("daughter-factorization", _factorization,
     (("max_rel_err", "tol", lt, 1e-8),)),
    ("weighted-energy-identity", _weighted_energy,
     (("spread", "tol", lt, 1e-6),)),
    ("plancherel-ratio", _plancherel,
     (("spread", "tol_spread", lt, 1e-6),
      ("refinement_drift", "tol_drift", lt, 1e-2))),
    ("heisenberg-slices", _heisenberg,
     (("min_slice", "bound", ge, 0.5 - 1e-3),)),
    ("uncertainty-constant", _uncertainty,
     (("K_emp", None, gt, 0.0),
      ("refinement_drift", "tol_drift", lt, 1e-2),
      ("scale_invariance_err", "tol_scale", lt, 1e-13))),
)


def run_cell_checks(q, alpha, beta, n_low, n_high):
    """The report of every check on the (q, v) cell over [n_low, n_high]:
    per check, in fixed order, its name, passed, measured values, limits."""
    cell = _Cell(q, alpha, beta, n_low, n_high)
    checks = []
    for name, measure, limits in _CHECKS:
        got = measure(cell)
        passed = all(test(got[key], value) for key, _, test, value in limits)
        checks.append({"name": name, "passed": passed, **got, **{
            limit: value for _, limit, _, value in limits if limit}})
    return {"q": q, "alpha": alpha, "beta": beta,
            "passed": all(c["passed"] for c in checks), "checks": checks}
