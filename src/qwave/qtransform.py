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
from mpmath.libmp import (from_float, from_man_exp, mpf_mul, round_nearest,
                          to_float)

from qwave.qbessel import lattice_kernel, mp_context
from qwave.qgrid import GridFunction, jackson_weights, weight_exponent

CALIBRATION_SPREAD_TOL = 1e-6


class CalibrationError(RuntimeError):
    """Probe double-transform ratios disagree: the grid is too small."""


class TransformPlan:
    """Transform state for one (grid, v) pair: the float64 kernel matrix
    over all index sums, the Jackson weights, and the normalization c.
    A new plan has c = 1; make_plan calibrates c on it and records the
    calibration's spread and residual, and nothing changes after that.

    Its high-precision operands, per context precision, are filled on
    demand by _plan_weights (raw-tuple Jackson weights) and
    _plan_kappa_row (one raw-tuple kappa row over every index sum
    [2 n_low, 2 n_high]) and kept with the plan."""

    __slots__ = ("grid", "v", "c_qv", "matrix", "weights",
                 "calibration_spread", "calibration_residual", "_mp_operands")

    def __init__(self, grid, v):
        self.grid = grid
        self.v = v
        self.c_qv = 1.0
        # matrix[i, j] = kernel at index sum n_i + n_j; symmetric by construction
        sums = np.add.outer(grid.indices, grid.indices) - 2 * grid.n_low
        self.matrix = _kernel_row(grid, v)[sums]
        self.weights = jackson_weights(grid, v)
        self.calibration_spread = 0.0
        self.calibration_residual = 0.0
        # context prec -> [{n: weight}, kappa row or None]
        self._mp_operands = {}

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


def mp_dot(A, B, prec):
    """sum_k A[k] B[k] over raw mpf tuples (mpf._mpf_), rounded once to
    nearest at prec bits: the raw tuple that mpmath.fdot(A, B) returns at
    that precision.

    Each product is exact (sign xor, mantissa product, exponent sum) and
    is accumulated by the rules of mpmath's libmp.mpf_sum, including its
    two branches that drop a term more than 2*prec bits below the running
    sum or replace a sum that far below the term (man.bit_length() is
    libmp.bitcount(abs(man)) for a signed mantissa). So the result is
    bit-identical to fdot, without fdot's per-pair type checks, the
    bit count inside each exact multiply, or its second pass over a list
    of products.

    mpmath encodes +-inf and nan with a zero mantissa; they raise
    ValueError here rather than be summed as zeros.
    """
    man = 0
    exp = 0
    max_extra = 2 * prec
    for (asign, aman, aexp, _), (bsign, bman, bexp, _) in zip(A, B):
        xman = aman * bman
        if not xman:
            if (aexp and not aman) or (bexp and not bman):
                raise ValueError("mp_dot operand is inf or nan")
            continue
        if asign ^ bsign:
            xman = -xman
        xexp = aexp + bexp
        delta = xexp - exp
        if delta >= 0:
            # the product far above the running sum replaces it
            if delta > max_extra and (
                    not man or delta - man.bit_length() > max_extra):
                man = xman
                exp = xexp
            else:
                man += xman << delta
        else:
            delta = -delta
            # the product far below the running sum is dropped
            if delta > max_extra and delta - xman.bit_length() > max_extra:
                if not man:
                    man = xman
                    exp = xexp
            else:
                man = (man << delta) + xman
                exp = xexp
    return from_man_exp(man, exp, prec, round_nearest)


def mp_kappa_row(qmp, beta, tab, t_lo, t_hi):
    """kappa(t) = q^{-2 beta (t+beta)} tab[t] for t in [t_lo, t_hi], at the
    precision of qmp's mpmath context, as a list of raw mpf tuples
    starting at t_lo (mp_dot's operand form; ctx.make_mpf wraps one back).

    One power for t_lo, then one multiply by q^{-2 beta} per step, so
    the row costs no mpmath power per entry. Each multiply is the
    libmp.mpf_mul call that mpf * mpf makes, without the object.
    """
    ctx = qmp.context
    prec = ctx.prec
    b = ctx.mpf(beta)
    step = (qmp ** (-2 * b))._mpf_
    p = (qmp ** (-2 * b * (t_lo + b)))._mpf_
    row = []
    for t in range(t_lo, t_hi + 1):
        row.append(mpf_mul(p, tab[t]._mpf_, prec, round_nearest))
        p = mpf_mul(p, step, prec, round_nearest)
    return row


def _plan_weights(plan, ns, ctx):
    """Jackson weights (1-q) q^{n(2|v|+2)} for every n in ns, as raw mpf
    tuples at the precision of the mpmath context ctx, in a {n: weight}
    dict holding at least ns. Each is the power the plan's first request
    for it at this precision evaluated; later calls only look it up.
    """
    weights = plan._mp_operands.setdefault(ctx.prec, [{}, None])[0]
    missing = [n for n in ns if n not in weights]
    if missing:
        qmp = ctx.mpf(plan.grid.q)
        wexp = weight_exponent(plan.v)
        for n in missing:
            weights[n] = ((1 - qmp) * qmp ** (n * wexp))._mpf_
    return weights


def _kappa_row(grid, v, ctx):
    """mp_kappa_row over every index sum [2 n_low, 2 n_high] of the grid,
    at the precision of the mpmath context ctx."""
    t_lo, t_hi = 2 * grid.n_low, 2 * grid.n_high
    tab = lattice_kernel(v.nu, grid.q, t_lo, t_hi)
    return mp_kappa_row(ctx.mpf(grid.q), v.beta, tab, t_lo, t_hi)


def _plan_kappa_row(plan, ctx):
    """The plan's kappa row at the precision of the mpmath context ctx:
    a list of raw mpf tuples, entry t - 2 n_low holding kappa(t). Built
    on the first request at this precision and kept with the plan."""
    ops = plan._mp_operands.setdefault(ctx.prec, [{}, None])
    if ops[1] is None:
        ops[1] = _kappa_row(plan.grid, plan.v, ctx)
    return ops[1]


def _kernel_row(grid, v):
    """Float64 kernel values kappa(s) = q^{-2 beta (s+beta)} j_nu(q^s; q^2)
    for every index sum s in [2 n_low, 2 n_high]."""
    return np.array([to_float(k, rnd=round_nearest)
                     for k in _kappa_row(grid, v, mp_context(60))])


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
    spread = max(abs(r / rho - 1.0) for r in rhos)
    if spread > CALIBRATION_SPREAD_TOL:
        raise CalibrationError(
            f"double-transform ratios spread {spread:.3e} across probes; "
            "grid too small for this (q, v)")
    plan.c_qv = 1.0 / math.sqrt(rho)
    plan.calibration_spread = spread
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
    at a precision scaled to the requested depth, then rounded once.

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
    cache (_plan_weights, _plan_kappa_row), so a call on a warm plan
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
    dps = int(2 * depth * math.log10(1.0 / grid.q)) + 80
    out = {}
    ctx = mp_context(dps)
    prec = ctx.prec
    weights = _plan_weights(plan, ns, ctx)
    kap = _plan_kappa_row(plan, ctx)
    weighted = [mpf_mul(weights[n], ctx.mpf(val)._mpf_, prec, round_nearest)
                for n, val in support.items()]
    c = from_float(plan.c_qv)
    offsets = [n - t_lo for n in ns]
    for s in range(s_lo, s_hi + 1):
        dot = mp_dot(weighted, [kap[o + s] for o in offsets], prec)
        out[s] = to_float(mpf_mul(c, dot, prec, round_nearest),
                          rnd=round_nearest)
    return out
