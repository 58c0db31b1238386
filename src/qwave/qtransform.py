"""The generalized q-Bessel Fourier transform, its calibrated
normalization constant, and the spectrally defined translation operator.

Geometry of the sampling: physical points sit at q^n. Spectral outputs
are indexed by the same integers, with the kernel sampled at the
beta-shifted products q^{n+s+beta}. That shift keeps the underlying
one-parameter kernel on the integer lattice, where its orthogonality
relations hold; sampling the products at q^{n+s} instead makes the
double transform diverge for non-integer beta. At beta = 0 the two
samplings coincide.

The normalization constant is nowhere pinned down analytically, so it is
calibrated: the double transform scales as c^2, so measuring the
double-transform ratio rho at c = 1 gives c = 1/sqrt(rho). At
v = (0, 0) the calibrated value reproduces 1/(1-q).
"""

import math

import numpy as np
from mpmath.libmp import from_float, mpf_mul, round_nearest, to_float

from qwave.qbessel import (FLOAT_ROW_DPS, kappa_row, mp_context, mp_dot,
                           spectrum_dps)
from qwave.qgrid import GridFunction, jackson_weights, weight_exponent

CALIBRATION_SPREAD_TOL = 1e-6


class CalibrationError(RuntimeError):
    """Probe double-transform ratios disagree: the grid is too small."""


class TransformPlan:
    """Transform state for one (grid, v) pair: the float64 kernel matrix
    over all index sums, rounded from the FLOAT_ROW_DPS kappa row, the
    Jackson weights, and the normalization c. A new plan has c = 1;
    make_plan calibrates c on it and records the calibration's residual,
    and nothing changes after that.

    Its high-precision operands are kept with it, per working precision
    from qbessel's table: kappa_row(dps) and mp_weights(ns, dps) build
    each on its first request and look it up after that."""

    __slots__ = ("grid", "v", "c_qv", "matrix", "weights",
                 "calibration_residual", "_mp_operands")

    def __init__(self, grid, v):
        self.grid = grid
        self.v = v
        self.c_qv = 1.0
        self.weights = jackson_weights(grid, v)
        # matrix[i, j] = kernel at index sum n_i + n_j; symmetric by construction
        sums = np.add.outer(grid.indices, grid.indices) - 2 * grid.n_low
        row = [to_float(k, rnd=round_nearest)
               for k in kappa_row(grid, v, FLOAT_ROW_DPS)]
        self.matrix = np.array(row)[sums]
        self.calibration_residual = 0.0
        # dps -> [{n: weight}, kappa row or None]
        self._mp_operands = {}

    def kappa_row(self, dps):
        """qbessel.kappa_row(grid, v, dps), built on the first request at
        dps and kept with the plan: entry t - 2 n_low holds kappa(t)."""
        ops = self._mp_operands.setdefault(dps, [{}, None])
        if ops[1] is None:
            ops[1] = kappa_row(self.grid, self.v, dps)
        return ops[1]

    def mp_weights(self, ns, dps):
        """Jackson weights (1-q) q^{n(2|v|+2)} as raw mpf tuples at dps
        digits, in a {n: weight} dict holding at least ns. Each is built
        on the plan's first request for it at dps and looked up after."""
        weights = self._mp_operands.setdefault(dps, [{}, None])[0]
        qmp = mp_context(dps).mpf(self.grid.q)
        wexp = weight_exponent(self.v)
        for n in ns:
            if n not in weights:
                weights[n] = ((1 - qmp) * qmp ** (n * wexp))._mpf_
        return weights

    def fourier_values(self, values):
        """Raw transform of a value array (same index range in and out)."""
        return self.c_qv * (self.matrix @ (self.weights * values))

    def norm_sq(self, values):
        return math.fsum((values * values * self.weights).tolist())

    def involution_residual(self, probes):
        """Worst relative norm of (double transform - input) over probes."""
        resid = 0.0
        for f in probes:
            g = self.fourier_values(self.fourier_values(f.values))
            resid = max(resid, math.sqrt(
                self.norm_sq(g - f.values) / self.norm_sq(f.values)))
        return resid


def _default_calibration_probes(grid):
    """Six interior-supported probes: indicators around the grid center
    plus two short combinations. Support stays >= 10 indices from both
    truncation ends when the grid allows it, so involution error reflects
    the kernel rather than the edges; on cramped grids the probes sit
    wherever they fit and the spread check reports the truncation."""
    if grid.size < 4:
        raise ValueError("calibration needs at least four grid points")
    mid = (grid.n_low + grid.n_high) // 2
    lo = max(grid.n_low + 10, min(mid - 3, grid.n_high - 10))
    lo = max(grid.n_low, min(lo, grid.n_high - 3))
    probes = [GridFunction.from_pairs(grid, [(lo + k, 1.0)]) for k in range(4)]
    probes.append(GridFunction.from_pairs(grid, [(lo, 1.0), (lo + 2, -1.0)]))
    probes.append(GridFunction.from_pairs(
        grid, [(lo, 1.0), (lo + 1, 2.0), (lo + 3, 0.5)]))
    return probes


def make_plan(grid, v, probes=None):
    """Build and calibrate a TransformPlan. probes defaults to a small
    interior family; pass your own to recheck probe-independence.

    The double-transform ratio rho is measured on the new plan at c = 1,
    then c = 1/sqrt(rho) is set on that same plan."""
    probes = probes or _default_calibration_probes(grid)
    plan = TransformPlan(grid, v)
    rhos = []
    for f in probes:
        g = plan.fourier_values(plan.fourier_values(f.values))
        denom = plan.norm_sq(f.values)
        if denom == 0.0:
            raise ValueError("calibration probe is identically zero")
        rhos.append(math.fsum((g * f.values * plan.weights).tolist())
                    / denom)
    rho = rhos[0]
    if not (math.isfinite(rho) and rho > 0.0):
        raise CalibrationError(
            f"double-transform ratio {rho:g} of the first probe is not "
            "finite positive; grid too small for this (q, v)")
    spread = max(abs(r / rho - 1.0) for r in rhos)
    if spread > CALIBRATION_SPREAD_TOL:
        raise CalibrationError(
            f"double-transform ratios spread {spread:.3e} across probes; "
            "grid too small for this (q, v)")
    plan.c_qv = 1.0 / math.sqrt(rho)
    plan.calibration_residual = plan.involution_residual(probes)
    return plan


def q_bessel_fourier(f, plan):
    """Transform of a finitely supported grid function.

    Output values are indexed by the same integer range (spectral points
    on the shifted lattice)."""
    if f.grid != plan.grid:
        raise ValueError("grid function and plan use different grids")
    return GridFunction(plan.grid, plan.fourier_values(f.values))


def translate(f, n, plan):
    """Generalized shift by the grid point q^n, defined through the
    transform: y -> c * sum_s Ff(s) kappa(y s) kappa(n s) w(s).

    Quadratic cost; intended for small-support inputs like wavelets."""
    grid = plan.grid
    col = plan.matrix[grid.pos(n)]
    Ff = plan.fourier_values(f.values)
    shifted = plan.c_qv * (plan.matrix @ (plan.weights * Ff * col))
    return GridFunction(grid, shifted)


def spectrum(f, plan, s_lo=None, s_hi=None):
    """High-precision transform of a small-support input, entrywise.

    The float64 matrix path loses the transform values of mean-free
    inputs at deep spectral indices: the weighted kernel's leading order
    cancels exactly there, and what is left sits up to hundreds of orders
    below the individual terms. Each output here is assembled in mpmath
    at qbessel.spectrum_dps(q, depth), a precision scaled to the deepest
    index the call touches, then rounded once.

    f is a GridFunction or an {index: value} dict: float values are
    converted exactly, and mpf values let an input carry excess
    precision. Returns {s: float} over [s_lo, s_hi], defaulting to the
    grid index range.

    Each output is c * mp_dot(weighted f, kappa shifted by s): a dot
    product of exact products, rounded once, bit-identical to
    mpmath.fdot, then multiplied by c and rounded to float64 with the
    libmp calls that mpf * mpf and float() make. The operands that
    depend only on the plan, the Jackson weights and the kappa row over
    the plan's index sums [2 n_low, 2 n_high], come from the plan's
    cache (plan.mp_weights, plan.kappa_row), so a call on a warm plan
    computes one multiply per support entry and the dot products. An
    index sum n + s outside that range raises ValueError.
    """
    grid = plan.grid
    if s_lo is None:
        s_lo, s_hi = grid.n_low, grid.n_high
    if isinstance(f, GridFunction):
        if f.grid != grid:
            raise ValueError("grid function and plan use different grids")
        support = f.nonzero_values()
    else:
        support = dict(f)
    if not support:
        return {s: 0.0 for s in range(s_lo, s_hi + 1)}
    ns = list(support)
    t_lo, t_hi = 2 * grid.n_low, 2 * grid.n_high
    if min(ns) + s_lo < t_lo or max(ns) + s_hi > t_hi:
        raise ValueError(
            f"index sums [{min(ns) + s_lo}, {max(ns) + s_hi}] leave the "
            f"plan's range [{t_lo}, {t_hi}]")
    depth = max(abs(s_lo), abs(s_hi), abs(grid.n_low), abs(grid.n_high),
                *(abs(n) for n in ns))
    dps = spectrum_dps(grid.q, depth)
    out = {}
    ctx = mp_context(dps)
    prec = ctx.prec
    weights = plan.mp_weights(ns, dps)
    kap = plan.kappa_row(dps)
    weighted = [mpf_mul(weights[n], ctx.mpf(val)._mpf_, prec, round_nearest)
                for n, val in support.items()]
    c = from_float(plan.c_qv)
    offsets = [n - t_lo for n in ns]
    for s in range(s_lo, s_hi + 1):
        dot = mp_dot(weighted, [kap[o + s] for o in offsets], prec)
        out[s] = to_float(mpf_mul(c, dot, prec, round_nearest),
                          rnd=round_nearest)
    return out
