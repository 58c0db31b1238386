"""The generalized q-Bessel Fourier transform, its calibrated
normalization constant, and the spectrally defined translation operator.

Geometry of the sampling: physical points sit at q^n. Spectral outputs
are indexed by the same integers, with the kernel sampled at the
beta-shifted products q^{n+s+beta}. That shift keeps the underlying
one-parameter kernel on the integer lattice, where its orthogonality
relations hold; sampling the products at q^{n+s} instead makes the
double transform diverge for non-integer beta. At beta = 0 the two
samplings coincide.

The normalization constant has the closed form
c = q^{2 beta^2} (Q^{nu+1}; Q)_inf / ((1-q) (Q; Q)_inf), with Q = q^2
and nu = alpha - beta (Koornwinder and Swarttouw, Trans. AMS 333,
1992), and tests/test_qtransform.py::TestCalibration::
test_constant_matches_its_closed_form holds the calibrated c within
2^-49 of it. The library still calibrates c: the double transform
scales as c^2, so measuring the double-transform ratio rho at c = 1
gives c = 1/sqrt(rho). At v = (0, 0) the calibrated value reproduces
1/(1-q).
"""

import itertools
import math

import numpy as np
from mpmath.libmp import from_float, mpf_mul, round_nearest, to_float
from numpy.lib.stride_tricks import sliding_window_view

from qwave.qbessel import (FLOAT_ROW_DPS, dd_dot, dd_round, dd_split,
                           dd_split_floats, fsum_rows, kappa_row,
                           lattice_kernel, mp_context, mp_dot, spectrum_dps)
from qwave.qgrid import GridFunction, jackson_weights, mp_weight_exponent

CALIBRATION_SPREAD_TOL = 1e-6
# terms per block of float_transform, so that no call makes a
# support x outputs temporary
_DD_BLOCK = 1 << 14
# the largest column exponent k_j of a plan's scaled kernel
_MAX_SHIFT = 64


class CalibrationError(RuntimeError):
    """Probe double-transform ratios disagree: the grid is too small."""


class OrderError(ValueError):
    """The kernel order nu = alpha - beta is not above -1, where the
    q-Hankel inversion behind the transform holds."""


class TransformPlan:
    """Transform state for one (grid, v) pair: the float64 kernel matrix
    M over all index sums, rounded from the FLOAT_ROW_DPS kappa row, the
    Jackson weights, and the normalization c_qv. M is kept scaled in
    place, column by column, by a power of two, so that its products
    with operands of tiny magnitude avoid subnormal arithmetic:
    scaled_kernel holds M[:, j] 2^-k_j and kernel_exponents the ints
    k_j. gemv is the one product with M, and it never builds M but for
    an operand that would overflow. The constructor calibrates c_qv on a
    small interior probe family (_calibration_probes), read as one block:
    it measures the double-transform ratio rho at c = 1, sets
    c = 1/sqrt(rho) and records the probes' involution residual. A kernel
    order nu <= -1 is refused with OrderError before any table is built.

    Its high-precision operands are kept with it, per working precision
    from qbessel's table: kappa_row(dps) and mp_weights(ns, dps) build
    each on its first request and look it up after that. It holds its
    kernel table and builds every kappa row from it, so a kappa_row at a
    new dps builds no table entries and gives the same row whatever
    qbessel's cache holds by then; holding it also keeps the table in
    that cache while the plan lives. Their double-double forms, which
    float_transform reads, are kept the same way per (dps, c_qv), with
    c_qv folded into the weights (dd_operands)."""

    __slots__ = ("grid", "v", "c_qv", "scaled_kernel", "kernel_exponents",
                 "weights", "calibration_residual", "_table", "_powers",
                 "_mp_weights", "_kappa_rows", "_dd_operands")

    def __init__(self, grid, v):
        if not v.nu > -1.0:
            raise OrderError(f"kernel order nu = alpha - beta = {v.nu!r} "
                             "must satisfy nu > -1 for a transform plan")
        probes = _calibration_probes(grid)
        self.grid = grid
        self.v = v
        self.weights = jackson_weights(grid, v)
        self._table = lattice_kernel(v.nu, grid.q, 2 * grid.n_low,
                                     2 * grid.n_high)
        # M[i, j] = kernel at index sum n_i + n_j, entry i + j of the
        # row: Hankel, so row and column j of M are the window
        # row[j:j + N]. k_j takes its least nonzero magnitude,
        # 2^(e-1) <= |x| < 2^e, down to 2^-1022 at most, so every
        # nonzero entry stays normal and the scaling in place is exact.
        row = np.array([to_float(k, rnd=round_nearest) for k in
                        kappa_row(self._table, grid, v, FLOAT_ROW_DPS)])
        self.scaled_kernel = sliding_window_view(row, grid.size).copy()
        mags = np.abs(row)
        mags[mags == 0.0] = math.inf
        _, least = np.frexp(sliding_window_view(mags, grid.size).min(axis=1))
        self.kernel_exponents = np.clip(least + 1021, 0, _MAX_SHIFT)
        self.scaled_kernel *= np.ldexp(1.0, -self.kernel_exponents)
        self._powers = np.ldexp(1.0, self.kernel_exponents)
        # dps -> {n: weight}; dps -> kappa row; (dps, c_qv) -> (c w(n)
        # as dd arrays by grid position, hi nan until built; the kappa
        # row's dd windows)
        self._mp_weights = {}
        self._kappa_rows = {}
        self._dd_operands = {}
        self.c_qv = 1.0  # while rho is measured
        F = np.array([f.values for f in probes])
        denoms = fsum_rows(F * F * self.weights)
        if not denoms.all():
            raise ValueError("calibration probe is identically zero")
        G = self.fourier_values(self.fourier_values(F))
        rhos = fsum_rows(G * F * self.weights) / denoms
        rho = rhos[0]
        if not (math.isfinite(rho) and rho > 0.0):
            raise CalibrationError(
                f"double-transform ratio {rho:g} of the first probe is not "
                "finite positive; grid too small for this (q, v)")
        spread = np.max(np.abs(rhos / rho - 1.0))
        if not spread <= CALIBRATION_SPREAD_TOL:
            raise CalibrationError(
                f"double-transform ratios spread {spread:.3e} across "
                "probes; grid too small for this (q, v)")
        self.c_qv = 1.0 / math.sqrt(rho)
        self.calibration_residual = self.involution_residual(probes)

    def kappa_row(self, dps):
        """qbessel.kappa_row of the plan's own table at dps, built on the
        first request at dps and kept with the plan: entry t - 2 n_low
        holds kappa(t)."""
        if dps not in self._kappa_rows:
            self._kappa_rows[dps] = kappa_row(self._table, self.grid,
                                              self.v, dps)
        return self._kappa_rows[dps]

    def mp_weights(self, ns, dps):
        """Jackson weights (1-q) q^{n(2|v|+2)} as raw mpf tuples at dps
        digits, in a {n: weight} dict holding at least ns. Each is built
        on the plan's first request for it at dps and looked up after."""
        weights = self._mp_weights.setdefault(dps, {})
        missing = [n for n in ns if n not in weights]
        if missing:
            ctx = mp_context(dps)
            qmp = ctx.mpf(self.grid.q)
            wexp = mp_weight_exponent(ctx, self.v)
            for n in missing:
                weights[n] = ((1 - qmp) * qmp ** (n * wexp))._mpf_
        return weights

    def mp_transform(self, values, s_lo, s_hi, dps):
        """The transform sum c * sum_n w(n) values[n] kappa(n + s) at dps
        digits for each s in [s_lo, s_hi], as {s: raw mpf tuple}. values
        is {n: raw mpf tuple}; an index sum n + s outside the plan's
        range [2 n_low, 2 n_high] raises ValueError.

        Each w(n) values[n] is an exact product rounded once, each sum
        is one mp_dot against the kappa row (exact products, rounded
        once, bit-identical to mpmath.fdot), and c times it is rounded
        once more: the libmp calls that mpf * mpf makes. The weights and
        the row come from the plan's cache, so a call on a warm plan
        computes one multiply per entry of values and the dot products.
        Entry n's kappa values over the s range are one slice of the
        row, and the column for each s is read across those slices.
        """
        count = s_hi - s_lo + 1
        if values and count > 0:
            self.check_index_sums(min(values), max(values), s_lo, s_hi)
        prec = mp_context(dps).prec
        weights = self.mp_weights(values, dps)
        kap = self.kappa_row(dps)
        weighted = [mpf_mul(weights[n], val, prec, round_nearest)
                    for n, val in values.items()]
        starts = [n + s_lo - 2 * self.grid.n_low for n in values]
        cols = zip(*[kap[o:o + count] for o in starts]) if values \
            else [()] * count
        c = from_float(self.c_qv)
        return {s: mpf_mul(c, mp_dot(weighted, col, prec), prec,
                           round_nearest)
                for s, col in zip(range(s_lo, s_hi + 1), cols)}

    def dd_operands(self, ns, dps):
        """The double-double forms (qbessel.dd_split) at dps of the
        weights times c, and of kappa_row: the (hi, lo, exp) arrays of
        the exact products c w(n), c = c_qv, for n in ns, and the row's
        (hi, lo, exp) as sliding windows, 2-D views whose entry [t, j]
        is the row's entry t + j. The plan keeps them per (dps, c_qv):
        c w(n) in arrays over the grid's positions, each entry built on
        the first request for it, and the row on the first request.
        Indices off the grid are built on every request and not kept."""
        key = (dps, self.c_qv)
        if key not in self._dd_operands:
            size = self.grid.size
            # windows[t, j] is entry t + j of the row, zero-padded past
            # its end so that every t on the row has a full window
            self._dd_operands[key] = (
                (np.full(size, np.nan), np.empty(size),
                 np.empty(size, dtype=np.int64)),
                tuple(sliding_window_view(np.concatenate((part, 0 * part)),
                                          len(part))
                      for part in dd_split(self.kappa_row(dps))))
        kept, windows = self._dd_operands[key]
        n_low = self.grid.n_low
        if min(ns) < n_low or max(ns) > self.grid.n_high:
            return self._dd_weights(ns, dps), windows
        pos = np.array(ns) - n_low
        w = tuple(part[pos] for part in kept)
        unbuilt = np.isnan(w[0])
        if unbuilt.any():
            missing = pos[unbuilt]
            built = self._dd_weights((missing + n_low).tolist(), dps)
            for part, new in zip(kept, built):
                part[missing] = new
            w = tuple(part[pos] for part in kept)
        return w, windows

    def _dd_weights(self, ns, dps):
        """dd_split of the exact products c w(n), c = c_qv, n in ns."""
        c = from_float(self.c_qv)
        mp_w = self.mp_weights(ns, dps)
        return dd_split([mpf_mul(c, mp_w[n]) for n in ns])

    def float_transform(self, values, s_lo, s_hi, dps):
        """to_float(mp_transform(values, s_lo, s_hi, dps)[s],
        rnd=round_nearest) for each s in [s_lo, s_hi], as a float64
        array over that range. values is a pair (ns, x): the input's
        indices and its values, either a float64 array, which stands
        for from_float's raw tuples, or a list of raw mpf tuples.

        Every output is first computed in double-double by
        qbessel.dd_dot, all at once, with a rigorous bound on its
        distance from the mp_transform value, and kept where
        qbessel.dd_round certifies that the bound cannot change its
        rounding (Ziv's scheme). A float array is split into
        double-double directly (qbessel.dd_split_floats). The outputs
        it declines come from mp_transform, called once over each run
        of consecutive declined s, so the result is mp_transform's bit
        for bit either way; a float input's raw tuples are built only
        then. Infinite or nan values take the mp_transform route, which
        rejects them."""
        ns, x = values
        floats = isinstance(x, np.ndarray)
        count = max(0, s_hi - s_lo + 1)
        out = np.empty(count)
        ok = np.zeros(count, dtype=bool)
        if ns and count and (np.isfinite(x).all() if floats else all(
                val[1] or not val[2] for val in x)):
            self.check_index_sums(min(ns), max(ns), s_lo, s_hi)
            w, kap = self.dd_operands(ns, dps)
            v = dd_split_floats(x) if floats else dd_split(x)
            prec = mp_context(dps).prec
            starts = np.array(ns) + (s_lo - 2 * self.grid.n_low)
            step = max(1, _DD_BLOCK // len(ns))
            for lo in range(0, count, step):
                hi = min(lo + step, count)
                # entry (k, i) is kappa(n_k + s_lo + lo + i)
                out[lo:hi], ok[lo:hi] = dd_round(*dd_dot(
                    w, v, tuple(part[starts, lo:hi] for part in kap), prec))
        declined = np.flatnonzero(~ok).tolist()
        if declined:
            raw = dict(zip(ns, map(from_float, x.tolist()) if floats
                           else x))
        for _, run in itertools.groupby(enumerate(declined),
                                        lambda ji: ji[1] - ji[0]):
            run = [i for _, i in run]
            out[run[0]:run[-1] + 1] = [
                to_float(val, rnd=round_nearest) for val in
                self.mp_transform(raw, s_lo + run[0], s_lo + run[-1],
                                  dps).values()]
        return out

    def check_index_sums(self, n_lo, n_hi, s_lo, s_hi):
        """Raise ValueError unless every index sum n + s with n in
        [n_lo, n_hi] and s in [s_lo, s_hi] lies in the plan's range
        [2 n_low, 2 n_high], where its kappa row is defined."""
        t_lo, t_hi = 2 * self.grid.n_low, 2 * self.grid.n_high
        if n_lo + s_lo < t_lo or n_hi + s_hi > t_hi:
            raise ValueError(
                f"index sums [{n_lo + s_lo}, {n_hi + s_hi}] leave the "
                f"plan's range [{t_lo}, {t_hi}]")

    def fourier_values(self, values):
        """Raw transform of a value array (same index range in and out),
        or of each row of a (k, N) block: c_qv times gemv of the
        weighted values x, one GEMV per row, so a row of a block has the
        bits of the same row alone. gemv multiplies the column-scaled
        kernel by x_j 2^k_j: each product is M_ij x_j exactly, as both
        scalings are exact, so each row has the bits of np.dot(M, x)
        with the kernel M itself."""
        return self.c_qv * self.gemv(self.weights * values)

    def gemv(self, x):
        """M x for the plan's kernel M, of an operand x of shape (N,) or
        of each row of a (k, N) block, bit for bit np.dot(M, x_i) per
        row, from the scaled kernel and never M itself.

        The product is one stacked np.matmul of scaled_kernel with the
        operand times 2^k as (N, 1) columns: with a right operand of one
        column, matmul calls BLAS's GEMV once per stacked row, the call
        np.dot makes. Column j of the scaled kernel holds M[:, j] 2^-k_j
        exactly, as every nonzero entry stays normal, and x_j 2^k_j is
        exact unless it overflows. So every product
        (M_ij 2^-k_j)(x_j 2^k_j) is the real number M_ij x_j, and it
        rounds as M_ij x_j does, in any order, blocking or FMA use of
        the BLAS sums. What changes is the operands' speed: an x_j that
        is subnormal, as where the Jackson weights underflow, is lifted
        to a normal float when k_j is large enough. A finite x_j whose
        scaled value overflows sends the call to M itself, rebuilt
        exactly for that call."""
        with np.errstate(over="ignore"):
            scaled = x * self._powers
        lifted = np.isinf(scaled)
        if lifted.any() and np.isfinite(x[lifted]).any():
            kernel = np.ldexp(self.scaled_kernel, self.kernel_exponents)
            return np.matmul(kernel, x[..., None])[..., 0]
        return np.matmul(self.scaled_kernel, scaled[..., None])[..., 0]

    def norm_sq(self, values):
        return math.fsum((values * values * self.weights).tolist())

    def involution_residual(self, probes):
        """Worst relative norm of (double transform - input) over probes,
        read as one block. A probe that is identically zero, whose
        relative norm is 0 / 0, raises ValueError."""
        if not probes:
            raise ValueError("need at least one probe")
        F = np.array([f.values for f in probes])
        denoms = fsum_rows(F * F * self.weights)
        zero = np.flatnonzero(denoms == 0.0)
        if zero.size:
            raise ValueError(f"involution probe {zero[0]} is identically zero")
        D = self.fourier_values(self.fourier_values(F)) - F
        return float(np.max(np.sqrt(fsum_rows(D * D * self.weights)
                                    / denoms)))


def _calibration_probes(grid):
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


def make_plan(grid, v):
    """A calibrated TransformPlan for (grid, v): TransformPlan(grid, v)."""
    return TransformPlan(grid, v)


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
    # row pos(n) of the kernel, its columns' scaling undone exactly
    col = np.ldexp(plan.scaled_kernel[grid.pos(n)], plan.kernel_exponents)
    Ff = plan.fourier_values(f.values)
    shifted = plan.c_qv * plan.gemv(plan.weights * Ff * col)
    return GridFunction(grid, shifted)


def spectrum(f, plan, s_lo=None, s_hi=None):
    """High-precision transform of a small-support input, entrywise, as
    a float64 array over [s_lo, s_hi]: entry i is the output at
    s_lo + i. A bound left out (None) defaults to its end of the grid
    index range, n_low or n_high.

    The float64 matrix path loses the transform values of mean-free
    inputs at deep spectral indices: the weighted kernel's leading order
    cancels exactly there, and what is left sits up to hundreds of orders
    below the individual terms. Each output here is plan.mp_transform at
    qbessel.spectrum_dps(q, depth), a precision scaled to the deepest
    index the call touches, rounded once to float64: plan.float_transform,
    which certifies that rounding in double-double where it can and
    takes mp_transform's value where it cannot.

    f is a GridFunction or an {index: value} dict. Float values are
    exact: an input whose values are all floats goes to float_transform
    as a float64 array. Other values are converted at the working
    precision, so mpf values let an input carry excess precision. An
    index sum n + s outside the plan's range [2 n_low, 2 n_high] raises
    ValueError before any precision is set up for it
    (plan.check_index_sums).
    """
    grid = plan.grid
    s_lo = grid.n_low if s_lo is None else s_lo
    s_hi = grid.n_high if s_hi is None else s_hi
    if isinstance(f, GridFunction):
        if f.grid != grid:
            raise ValueError("grid function and plan use different grids")
        nz = np.flatnonzero(f.values)
        ns, vals = (nz + grid.n_low).tolist(), f.values[nz]
    else:
        support = dict(f)
        ns, vals = list(support), list(support.values())
        if all(isinstance(val, float) for val in vals):
            vals = np.array(vals)
    if not ns:
        return np.zeros(max(0, s_hi - s_lo + 1))
    n_lo, n_hi = min(ns), max(ns)
    if s_lo <= s_hi:
        plan.check_index_sums(n_lo, n_hi, s_lo, s_hi)
    depth = max(abs(s_lo), abs(s_hi), abs(grid.n_low), abs(grid.n_high),
                abs(n_lo), abs(n_hi))
    dps = spectrum_dps(grid.q, depth)
    if not isinstance(vals, np.ndarray):
        ctx = mp_context(dps)
        # a float converts exactly, to the tuple ctx.mpf gives
        vals = [from_float(val) if isinstance(val, float)
                else ctx.mpf(val)._mpf_ for val in vals]
    return plan.float_transform((ns, vals), s_lo, s_hi, dps)

