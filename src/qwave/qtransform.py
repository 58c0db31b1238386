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
from mpmath import mp
from mpmath.libmp import (from_float, from_man_exp, mpf_mul, round_nearest,
                          to_float)

from qwave.qbessel import MP_LOCK, lattice_kernel
from qwave.qgrid import GridFunction, jackson_weights

CALIBRATION_SPREAD_TOL = 1e-6


class CalibrationError(RuntimeError):
    """Probe double-transform ratios disagree: the grid is too small."""


class TransformPlan:
    """Immutable transform state for one (grid, v) pair: the kernel table
    over all index sums, the Jackson weights, and the calibrated c.

    Its high-precision operands (raw-tuple Jackson weights and kappa
    rows, per working precision) are filled on demand by _plan_weights
    and _plan_kappa_row and kept with the plan."""

    __slots__ = ("grid", "v", "c_qv", "kernel_by_sum", "matrix", "weights",
                 "calibration_spread", "calibration_residual", "_mp_operands")

    def __init__(self, grid, v, c_qv, kernel_by_sum, calibration_spread=0.0,
                 calibration_residual=0.0):
        self.grid = grid
        self.v = v
        self.c_qv = float(c_qv)
        self.kernel_by_sum = kernel_by_sum
        # matrix[i, j] = kernel at index sum n_i + n_j; symmetric by construction
        sums = np.add.outer(grid.indices, grid.indices) - 2 * grid.n_low
        self.matrix = kernel_by_sum[sums]
        self.weights = jackson_weights(grid, v)
        self.calibration_spread = float(calibration_spread)
        self.calibration_residual = float(calibration_residual)
        # mp.prec -> ({n: weight}, {t_lo: (kernel table, kappa row)})
        self._mp_operands = {}

    def fourier_values(self, values):
        """Raw transform of a value array (same index range in and out)."""
        return self.c_qv * (self.matrix @ (self.weights * values))

    def norm_sq(self, values):
        return math.fsum((values * values * self.weights).tolist())


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
    caller's working precision, as a list of raw mpf tuples starting at
    t_lo (mp_dot's operand form; mp.make_mpf wraps one back).

    One power for t_lo, then one multiply by q^{-2 beta} per step, so
    the row costs no mpmath power per entry. Each multiply is the
    libmp.mpf_mul call that mpf * mpf makes, without the object. Call it
    inside the mp precision block that the values are meant for.
    """
    prec = mp.prec
    b = mp.mpf(beta)
    step = (qmp ** (-2 * b))._mpf_
    p = (qmp ** (-2 * b * (t_lo + b)))._mpf_
    row = []
    for t in range(t_lo, t_hi + 1):
        row.append(mpf_mul(p, tab[t]._mpf_, prec, round_nearest))
        p = mpf_mul(p, step, prec, round_nearest)
    return row


def _plan_weights(plan, ns):
    """Jackson weights (1-q) q^{n(2|v|+2)} for every n in ns, as raw mpf
    tuples at the working precision, in a {n: weight} dict holding at
    least ns. Each is the power the plan's first request for it at this
    precision evaluated; later calls only look it up. Call inside
    MP_LOCK and the mp precision block the values are meant for.
    """
    weights, _ = plan._mp_operands.setdefault(mp.prec, ({}, {}))
    missing = [n for n in ns if n not in weights]
    if missing:
        qmp = mp.mpf(plan.grid.q)
        wexp = 2.0 * plan.v.abs_v + 2.0
        for n in missing:
            weights[n] = ((1 - qmp) * qmp ** (n * wexp))._mpf_
    return weights


def _plan_kappa_row(plan, tab, t_lo, t_hi):
    """mp_kappa_row over [t_lo, t_hi] at the working precision (a list
    starting at t_lo, possibly running past t_hi), kept with the plan
    per (precision, t_lo).

    A stored row is served only while tab is the table it was built
    from and it reaches t_hi. lattice_kernel hands out a new table
    whenever it extends one, and deepening changes the s < 0 entries,
    so a row from an older table is rebuilt. A row is never sliced out
    of one that starts lower: the running product's rounding depends on
    where it starts. Call inside MP_LOCK and the precision block.
    """
    _, rows = plan._mp_operands.setdefault(mp.prec, ({}, {}))
    hit = rows.get(t_lo)
    if hit is not None and hit[0] is tab and len(hit[1]) > t_hi - t_lo:
        return hit[1]
    row = mp_kappa_row(mp.mpf(plan.grid.q), plan.v.beta, tab, t_lo, t_hi)
    rows[t_lo] = (tab, row)
    return row


def _kernel_row(grid, v):
    """Float64 kernel values kappa(s) = q^{-2 beta (s+beta)} j_nu(q^s; q^2)
    for every index sum s in [2 n_low, 2 n_high]."""
    tab = lattice_kernel(v.nu, grid.q, 2 * grid.n_low, 2 * grid.n_high)
    with MP_LOCK, mp.workdps(60):
        row = mp_kappa_row(mp.mpf(grid.q), v.beta, tab,
                           2 * grid.n_low, 2 * grid.n_high)
        return np.array([to_float(k, rnd=round_nearest) for k in row])


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


def _calibrate(v, grid, probes):
    kernel_by_sum = _kernel_row(grid, v)
    trial = TransformPlan(grid, v, 1.0, kernel_by_sum)
    rhos = []
    for f in probes:
        g = trial.fourier_values(trial.fourier_values(f.values))
        denom = trial.norm_sq(f.values)
        if denom == 0.0:
            raise ValueError("calibration probe is identically zero")
        rhos.append(math.fsum((g * f.values * trial.weights).tolist())
                    / denom)
    rho = rhos[0]
    spread = max(abs(r / rho - 1.0) for r in rhos)
    if spread > CALIBRATION_SPREAD_TOL:
        raise CalibrationError(
            f"double-transform ratios spread {spread:.3e} across probes; "
            "grid too small for this (q, v)")
    c = 1.0 / math.sqrt(rho)
    plan = TransformPlan(grid, v, c, kernel_by_sum, calibration_spread=spread)
    resid = 0.0
    for f in probes:
        g = plan.fourier_values(plan.fourier_values(f.values))
        resid = max(resid, math.sqrt(
            plan.norm_sq(g - f.values) / plan.norm_sq(f.values)))
    return TransformPlan(grid, v, c, kernel_by_sum, calibration_spread=spread,
                         calibration_residual=resid)


def make_plan(grid, v, probes=None):
    """Build and calibrate a TransformPlan. probes defaults to a small
    interior family; pass your own to recheck probe-independence."""
    return _calibrate(v, grid, probes or _default_calibration_probes(grid))


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

    f is a GridFunction (values converted exactly) or a dict of
    {index: mpf} for inputs that must carry excess precision. Returns
    {s: float} over [s_lo, s_hi], defaulting to the grid index range.

    Each output is c * mp_dot(weighted f, kappa shifted by s): a dot
    product of exact products, rounded once, bit-identical to
    mpmath.fdot, then multiplied by c and rounded to float64 with the
    libmp calls that mpf * mpf and float() make. The operands that
    depend only on the plan, the Jackson weights and the kappa row over
    every index sum t = n + s the outputs need, come from the plan's
    cache (_plan_weights, _plan_kappa_row), so a call on a warm plan
    computes one multiply per support entry and the dot products.
    """
    grid, v = plan.grid, plan.v
    if s_lo is None:
        s_lo, s_hi = grid.n_low, grid.n_high
    if isinstance(f, GridFunction):
        if f.grid != grid:
            raise ValueError("grid function and plan use different grids")
        support = {int(grid.indices[i]): f.values[i]
                   for i in np.nonzero(f.values)[0]}
    else:
        support = dict(f)
    if not support:
        return {s: 0.0 for s in range(s_lo, s_hi + 1)}
    ns = list(support)
    t_lo, t_hi = min(ns) + s_lo, max(ns) + s_hi
    tab = lattice_kernel(v.nu, grid.q, t_lo, t_hi)
    depth = max(abs(s_lo), abs(s_hi), abs(grid.n_low), abs(grid.n_high),
                *(abs(n) for n in ns))
    dps = int(2 * depth * math.log10(1.0 / grid.q)) + 80
    out = {}
    with MP_LOCK, mp.workdps(dps):
        prec = mp.prec
        weights = _plan_weights(plan, ns)
        kap = _plan_kappa_row(plan, tab, t_lo, t_hi)
        weighted = [mpf_mul(weights[n], mp.mpf(val)._mpf_, prec, round_nearest)
                    for n, val in support.items()]
        c = from_float(plan.c_qv)
        offsets = [n - t_lo for n in ns]
        for s in range(s_lo, s_hi + 1):
            dot = mp_dot(weighted, [kap[o + s] for o in offsets], prec)
            out[s] = to_float(mpf_mul(c, dot, prec, round_nearest),
                              rnd=round_nearest)
    return out
