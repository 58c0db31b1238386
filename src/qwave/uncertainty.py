"""Uncertainty quantities for the wavelet transform: position and
spectral second moments of the coefficient plane, slice-wise Heisenberg
products, and the empirical lower constant over a probe family.

The position moment I_R integrates b^2 |C(a,b)|^2 over the coefficient
plane. On the truncated grid that integral converges only for inputs
whose transform vanishes at the spectral origin; for anything else the
per-scale contributions flatten to a positive constant toward deep
dilations and the sum tracks the scale cutoff, not the function. The
probe family therefore carries mean-free members, and the minimizing
probe is always one of them, which is what makes the reported lower
constant stable under grid refinement.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from qwave.qgrid import GridFunction
from qwave.qwavelet import (Scaleogram, _spectral_rows, _spectrum_array,
                            gated_scale_sum, scale_rows)

SLICE_NORM_FLOOR = 1e-22


@dataclass(frozen=True)
class UncertaintyReport:
    """Plane moments and their Heisenberg-type ratio for one input."""
    I_R: float
    I_S: float
    norm_sq: float
    ratio: float


def thread_count():
    """Worker cap from QWAVE_THREADS; absent means all cores."""
    raw = os.environ.get("QWAVE_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        return max(int(raw), 1)
    except ValueError:
        raise ValueError(f"QWAVE_THREADS must be an integer, got {raw!r}")


def parallel_map(fn, items):
    """Map over independent per-probe work, in order. Thread count comes
    from QWAVE_THREADS; results are positionally collected, so the output
    does not depend on scheduling."""
    k = thread_count()
    if k <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=k) as ex:
        return list(ex.map(fn, items))


def probe_family(plan):
    """Nine standard probes: four point indicators, three short mixed
    combinations, and two mean-free combinations.

    Mean-free means the zeroth spectral moment vanishes; those are the
    inputs whose I_R survives grid refinement, and they are built by
    solving the one- and two-moment cancellation conditions exactly (the
    two-point one kills the zeroth moment, the three-point one the zeroth
    and first, via the cofactor solution of the 2x3 moment system)."""
    grid = plan.grid
    q = grid.q
    alpha = plan.v.alpha
    fam = [GridFunction.from_pairs(grid, [(n, 1.0)]) for n in (-2, 0, 1, 3)]
    fam.append(GridFunction.from_pairs(grid, [(0, 1.0), (2, -1.0)]))
    fam.append(GridFunction.from_pairs(grid, [(-1, 1.0), (1, 2.0), (3, 0.5)]))
    fam.append(GridFunction.from_pairs(
        grid, [(n, q ** (2.0 * n)) for n in range(-2, 5)]))
    fam.append(GridFunction.from_pairs(
        grid, [(0, 1.0), (2, -q ** (-2 * (2 * alpha + 2)))]))
    r, s = 2 * alpha + 2, 2 * alpha + 4
    n3 = (-1, 1, 2)
    A = [[q ** (ni * r) for ni in n3], [q ** (ni * s) for ni in n3]]
    amps = (A[1][1] * A[0][2] - A[0][1] * A[1][2],
            A[1][2] * A[0][0] - A[0][2] * A[1][0],
            A[1][0] * A[0][1] - A[0][0] * A[1][1])
    f = GridFunction.from_pairs(grid, list(zip(n3, amps)))
    fam.append(GridFunction(grid, f.values / math.sqrt(plan.norm_sq(f.values))))
    return fam


def op_R(f, spec, scale_indices=None):
    """Position-side operator: the scaleogram of f with each coefficient
    multiplied by its position, entries b * C(a, b)."""
    rows = scale_rows(f, spec, scale_indices)
    ms = sorted(rows)
    grid = spec.plan.grid
    coeffs = np.vstack([rows[m] * grid.points for m in ms])
    return Scaleogram(ms, [int(n) for n in grid.indices], coeffs, grid, spec.v)


def op_S(f, plan):
    """Spectral-side operator xi * Ff(xi) on the spectral lattice.

    The transform values come from the entrywise high-precision route;
    the float64 matrix route loses mean-free inputs at deep indices and
    those are exactly the inputs the moment integrals care about."""
    return GridFunction(plan.grid, plan.grid.points * _spectrum_array(f, plan))


def _position_moment_contrib(rows, plan):
    """Per-scale contributions to I_R: (1-q)/a * sum_b b^2 |C|^2 w(b),
    from the coefficient rows {m: C(q^m, .)}.

    On a deep grid b^2 w(b) itself can overflow float64 (q = 0.3 on
    [-160, 320]); the products are then inf or nan, and so is the sum,
    which the caller's ratio carries without a numpy warning."""
    q = plan.grid.q
    with np.errstate(over="ignore", invalid="ignore"):
        x2w = plan.grid.points ** 2 * plan.weights
        return {m: (1.0 - q) / (q ** float(m))
                * math.fsum((x2w * row * row).tolist())
                for m, row in rows.items()}


def uncertainty_report(f, spec):
    """I_R (gated plane sum), I_S (spectral moment), and their
    Heisenberg-type ratio sqrt(I_R * I_S) / ||f||^2."""
    plan = spec.plan
    nf = plan.norm_sq(f.values)
    if nf == 0.0:
        raise ValueError("uncertainty ratio undefined for the zero function")
    # one spectrum serves both moments (I_S is the norm of op_S(f, plan))
    Ff = _spectrum_array(f, plan)
    contrib = _position_moment_contrib(_spectral_rows(Ff, spec), plan)
    I_R, _ = gated_scale_sum(contrib)
    I_S = plan.norm_sq(plan.grid.points * Ff)
    return UncertaintyReport(I_R=I_R, I_S=I_S, norm_sq=nf,
                             ratio=math.sqrt(I_R * I_S) / nf)


def intermediate_heisenberg_check(f, spec, m):
    """Slice ratio N1(m) N2(m) / ||C(a_m, .)||^2 at one scale, where N1
    weights the slice by position and N2 its transform by position.
    Callers assert it stays >= 1/2 - eps; a zero slice is an error."""
    plan = spec.plan
    points = plan.grid.points
    row = scale_rows(f, spec, [m])[m]
    n2 = plan.norm_sq(row)
    if n2 == 0.0:
        raise ValueError(f"coefficient slice at scale index {m} is zero")
    n_pos = math.sqrt(plan.norm_sq(points * row))
    n_spec = math.sqrt(plan.norm_sq(points * plan.fourier_values(row)))
    return n_pos * n_spec / n2


def heisenberg_slice_minimum(f, spec):
    """Minimum slice ratio over the scales the gated plane sum actually
    uses, skipping slices whose norm sits at the noise floor."""
    plan = spec.plan
    points = plan.grid.points
    rows = scale_rows(f, spec)
    _, used = gated_scale_sum(_position_moment_contrib(rows, plan))
    norms = {m: plan.norm_sq(rows[m]) for m in used}
    top = max(norms.values())
    best = math.inf
    for m in sorted(used):
        if norms[m] <= SLICE_NORM_FLOOR * top:
            continue
        row = rows[m]
        n_pos = math.sqrt(plan.norm_sq(points * row))
        n_spec = math.sqrt(plan.norm_sq(points * plan.fourier_values(row)))
        best = min(best, n_pos * n_spec / norms[m])
    if not math.isfinite(best):
        raise ValueError("no coefficient slice rises above the noise floor")
    return best


def weighted_energy_ratio(f, spec):
    """Ratio of the b-weighted spectral plane energy to the matching
    spectral moment of f: integrate |b F[C(a,.)](b)|^2 against the plain
    d_q b measure and d_q a / a^2, divide by ||xi Ff||^2 under the same
    plain measure. Scale-invariant in the exact identity; the constant it
    returns equals the wavelet's admissibility constant."""
    plan = spec.plan
    grid = plan.grid
    q = grid.q
    points = grid.points
    wb_plain = (1.0 - q) * points
    x2wp = points ** 2 * wb_plain
    Ff = _spectrum_array(f, plan)
    den = math.fsum((points ** 2 * Ff ** 2 * wb_plain).tolist())
    if den == 0.0:
        raise ValueError("input has no spectral energy on the grid")
    rows = _spectral_rows(Ff, spec)
    contrib = {}
    for m, row in rows.items():
        frow = plan.fourier_values(row)
        contrib[m] = (1.0 - q) / (q ** float(m)) * math.fsum(
            (x2wp * frow ** 2).tolist())
    num, _ = gated_scale_sum(contrib)
    return num / den


def empirical_lower_constant(probes, spec):
    """min over probes of sqrt(I_R * I_S) / ||f||^2; the reported
    empirical stand-in for the uncertainty inequality's constant."""
    if not probes:
        raise ValueError("need at least one probe")
    reports = parallel_map(lambda f: uncertainty_report(f, spec), list(probes))
    return min(r.ratio for r in reports)
