"""Wavelets on the q-grid: admissibility, daughter wavelets, the
continuous wavelet transform, and the Plancherel-type energy ratio.

The transform is computed through the spectral side: the coefficient row
at scale q^m is sqrt(a) times the transform of (mother spectrum profile
at shifted indices) * (input spectrum). The direct route, a Jackson sum
of f against each daughter, is kept for cross-checks; the two agree to
float round-off at moderate scales but the spectral route stays accurate
over the whole scale set.

Mother wavelets are constructed in mpmath, not float64. Both shipped
candidates have an exactly vanishing zeroth spectral moment; rounding
that cancellation to float64 leaves a residual that the kernel's
x^{-2 beta} growth at the origin amplifies without bound (for beta > 0 a
1e-16 residual overtakes the true, decaying profile a few dozen indices
out and wrecks every plane integral downstream). Carrying the mother at
a few hundred digits pushes that crossover far past any usable grid.
"""

import math

import numpy as np
from mpmath.libmp import mpf_mul, round_nearest

from qwave.qbessel import FACTORIZATION_DPS, MOTHER_DPS, mp_context, mp_dot
from qwave.qgrid import GridFunction, dilate, weight_exponent
from qwave.qtransform import spectrum, translate

GATE_REL_TAIL = 1e-13
GATE_RUN = 3


class WaveletSpec:
    """A mother wavelet with its admissibility constant and the spectrum
    profile over the extended index range the transform needs."""

    __slots__ = ("mother", "admissibility", "plan", "mp_values",
                 "scale_indices", "profile")

    def __init__(self, mother, plan, admissibility, mp_values, scale_indices,
                 profile):
        self.mother = mother
        self.plan = plan
        self.admissibility = admissibility
        self.mp_values = mp_values
        self.scale_indices = scale_indices
        self.profile = profile


class Scaleogram:
    """Wavelet coefficients over scales q^m (rows) and positions q^n
    (columns), with the grid geometry needed to integrate them."""

    __slots__ = ("scale_indices", "scales", "position_indices", "positions",
                 "coeffs")

    def __init__(self, scale_indices, position_indices, coeffs, grid):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(scale_indices), len(position_indices)):
            raise ValueError(f"coefficient shape {coeffs.shape} does not match "
                             f"{len(scale_indices)} scales x {len(position_indices)} positions")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("scaleogram entries must be finite")
        self.scale_indices = list(scale_indices)
        self.position_indices = list(position_indices)
        self.scales = grid.q ** np.asarray(self.scale_indices, dtype=float)
        self.positions = grid.q ** np.asarray(self.position_indices, dtype=float)
        self.coeffs = coeffs


def mother_scale_range(mother_support, grid):
    """Scale indices m for which the dilated mother support stays on the
    grid: n_low - lo <= m <= n_high - hi."""
    lo, hi = mother_support
    return list(range(grid.n_low - lo, grid.n_high - hi + 1))


def make_wavelet(mother, plan, mp_values=None):
    """Wrap a finitely supported mother into a WaveletSpec.

    mp_values, when given, is a {grid index: mpf} dict carrying the
    mother at excess precision; by default it is the mother's nonzero
    float values. The spectrum profile is computed from it, and the
    admissibility constant is (1-q) times the profile's squared sum over
    the grid range (the d_q a / a measure collapses the weight to the
    bare 1-q). Rejected if that constant is not finite and positive.
    """
    if mother.grid != plan.grid:
        raise ValueError("mother and plan use different grids")
    sup = mother.support()
    if sup is None:
        raise ValueError("zero mother wavelet is not admissible")
    grid = plan.grid
    scale_indices = mother_scale_range(sup, grid)
    prof_lo = scale_indices[0] + grid.n_low
    prof_hi = scale_indices[-1] + grid.n_high
    if mp_values is None:
        mp_values = mother.nonzero_values()
    profile = spectrum(mp_values, plan, prof_lo, prof_hi)
    adm = (1.0 - grid.q) * math.fsum(
        profile[s] ** 2 for s in range(grid.n_low, grid.n_high + 1))
    if not (math.isfinite(adm) and adm > 0.0):
        raise ValueError(f"admissibility constant {adm} not finite positive")
    return WaveletSpec(mother, plan, adm, mp_values, scale_indices, profile)


def _normalized_mp_mother(plan, raw):
    """Normalize an mp-valued mother dict at MOTHER_DPS with the plan's
    Jackson weights, and produce its float64 view."""
    ctx = mp_context(MOTHER_DPS)
    weights = plan.mp_weights(raw, MOTHER_DPS)
    nsq = ctx.fsum(ctx.make_mpf(weights[n]) * val * val
                   for n, val in raw.items())
    nrm = ctx.sqrt(nsq)
    mp_values = {n: val / nrm for n, val in raw.items()}
    mother = GridFunction.from_pairs(
        plan.grid, [(n, float(val)) for n, val in mp_values.items()])
    return make_wavelet(mother, plan, mp_values)


def indicator_difference_mother(plan):
    """Difference of two point indicators with the amplitude ratio that
    kills the zeroth spectral moment; without that the admissibility
    integral diverges at the origin for beta >= 0."""
    ctx = mp_context(MOTHER_DPS)
    qmp = ctx.mpf(plan.grid.q)
    raw = {0: ctx.mpf(1), 2: -qmp ** (-2 * (2.0 * plan.v.alpha + 2.0))}
    return _normalized_mp_mother(plan, raw)


def operator_mother(plan):
    """The generalized q-Bessel operator applied to the bump (1, 2, 1) at
    indices (-1, 0, 1); the operator output is mean-free by construction.
    Mirrors the float64 generalized_q_bessel_operator stencil in mp."""
    grid, v = plan.grid, plan.v
    ctx = mp_context(MOTHER_DPS)
    qmp = ctx.mpf(grid.q)
    A = qmp ** (2.0 * v.alpha) + qmp ** (2.0 * v.beta)
    B = qmp ** (2.0 * v.alpha + 2.0 * v.beta)
    bump = {-1: ctx.mpf(1), 0: ctx.mpf(2), 1: ctx.mpf(1)}
    zero = ctx.mpf(0)
    raw = {n: (bump.get(n - 1, zero) - A * bump.get(n, zero)
               + B * bump.get(n + 1, zero)) / qmp ** (2 * n)
           for n in range(-2, 3)}
    return _normalized_mp_mother(plan, raw)


def daughter_wavelet(spec, m, n_b):
    """sqrt(a) * translate(a^{-(2|v|+2)} mother(./a), q^{n_b}) for a = q^m."""
    plan = spec.plan
    grid = plan.grid
    if m not in spec.scale_indices:
        raise ValueError(f"scale index {m} pushes the mother off the grid")
    wexp = weight_exponent(plan.v)
    psi_a = dilate(spec.mother, m).scaled(grid.q ** (-m * wexp))
    shifted = translate(psi_a, n_b, plan)
    return shifted.scaled(math.sqrt(grid.q ** m))


def _spectrum_array(f, plan):
    """spectrum(f, plan) over the grid's index range, as an array."""
    Ff_map = spectrum(f, plan)
    return np.array([Ff_map[s] for s in plan.grid.indices])


def scale_rows(Ff, spec, scale_indices=None):
    """Coefficient rows C(q^m, .) over the full position grid, one scale
    at a time, via the spectral route from the input's spectrum array Ff
    (every admissible scale by default). Returns {m: row array}."""
    plan = spec.plan
    grid = plan.grid
    if scale_indices is None:
        scale_indices = spec.scale_indices
    # profile[i] is spec.profile[prof_lo + i]; row m needs m + n for grid n
    prof_lo = spec.scale_indices[0] + grid.n_low
    prof_hi = spec.scale_indices[-1] + grid.n_high
    profile = np.array([spec.profile[k] for k in range(prof_lo, prof_hi + 1)])
    rows = {}
    for m in scale_indices:
        if m not in spec.scale_indices:
            raise ValueError(f"scale index {m} pushes the mother off the grid")
        a = grid.q ** float(m)
        start = m + grid.n_low - prof_lo
        rows[m] = math.sqrt(a) * plan.fourier_values(
            profile[start:start + grid.size] * Ff)
    return rows


class WaveletPlane:
    """The coefficient plane C(a, b) of one input f under one wavelet,
    built once, when constructed: f's spectrum array Ff and the rows
    {m: C(q^m, .)} at every scale in spec.scale_indices. Every plane
    integral reads it through its integral method."""

    __slots__ = ("f", "spec", "Ff", "rows")

    def __init__(self, f, spec):
        self.f = f
        self.spec = spec
        self.Ff = _spectrum_array(f, spec.plan)
        self.rows = scale_rows(self.Ff, spec)

    def integral(self, term):
        """Jackson sum of term over the plane against d_q b d_q a / a^2:
        per scale q^m, (1-q)/q^m times the fsum of the array term(row),
        which carries its own position weight, then gated_scale_sum over
        the scales. Returns (total, set of scale indices summed)."""
        q = self.spec.plan.grid.q
        return gated_scale_sum({
            m: (1.0 - q) / (q ** float(m)) * math.fsum(term(row).tolist())
            for m, row in self.rows.items()})


def cwt(f, spec, scale_indices=None):
    """Continuous wavelet transform as a Scaleogram over the full position
    grid; scale_indices defaults to every admissible scale."""
    grid = spec.plan.grid
    rows = scale_rows(_spectrum_array(f, spec.plan), spec, scale_indices)
    ms = sorted(rows)
    return Scaleogram(ms, list(grid.indices),
                      np.vstack([rows[m] for m in ms]), grid)


def cwt_direct(f, spec, scale_indices, position_indices):
    """Definition route: c * Jackson sum of f against each daughter.

    Builds every daughter through translate, so the cost is steep; use
    for cross-checking the spectral route on small samples."""
    plan = spec.plan
    grid = plan.grid
    coeffs = np.empty((len(scale_indices), len(position_indices)))
    for i, m in enumerate(scale_indices):
        for j, n_b in enumerate(position_indices):
            d = daughter_wavelet(spec, m, n_b)
            coeffs[i, j] = plan.c_qv * math.fsum(
                f.values * d.values * plan.weights)
    return Scaleogram(scale_indices, position_indices, coeffs, grid)


def gated_scale_sum(contrib):
    """Sum per-scale contributions walking outward from the peak; each
    direction stops after GATE_RUN consecutive scales below GATE_REL_TAIL
    of the running total.

    True contributions decay super-geometrically away from the peak, but
    the float64 noise floor under them grows like 1/a toward deep
    dilations; an ungated sum over a wide scale window picks that noise
    up. The gate never reaches it.

    Returns (total, set of scale indices actually summed).
    """
    mpeak = max(sorted(contrib), key=lambda m: contrib[m])
    used = [mpeak]
    total = contrib[mpeak]
    for step in (1, -1):
        falling = 0
        m = mpeak
        while True:
            m += step
            if m not in contrib:
                break
            if contrib[m] < GATE_REL_TAIL * total:
                falling += 1
                if falling >= GATE_RUN:
                    break
            else:
                falling = 0
                used.append(m)
                total += contrib[m]
    return math.fsum(contrib[m] for m in used), set(used)


def wavelet_plancherel_ratio(plane):
    """[plane.integral of |C(a,b)|^2 b^{2|v|+1} d_q b d_q a / a^2] over
    ||f||^2 for a WaveletPlane. The position integral always runs over
    the whole grid; restricting it would break the identity."""
    plan = plane.spec.plan
    nf = plan.norm_sq(plane.f.values)
    if nf == 0.0:
        raise ValueError("Plancherel ratio undefined for the zero function")
    total, _ = plane.integral(lambda row: row * row * plan.weights)
    return total / nf


def factorization_error(spec, scale_indices, position_indices, xi_indices,
                        dps=FACTORIZATION_DPS):
    """Worst relative mismatch of the daughter-spectrum factorization
    F[daughter(a,b)](xi) = sqrt(a) F[mother](a xi) kernel(b xi)
    over the given (scale, position, xi) sample.

    Left side: the daughter is built by dilation and translation and then
    transformed. Right side: the mother profile times one kernel value.
    Both sides are assembled in mpmath at dps digits (qbessel's
    FACTORIZATION_DPS by default); per (a, b) pair the mismatch is
    normalized by the largest right-side magnitude over the xi window.

    The transforms of the dilated mother, of the mother (its profile,
    once per scale) and of the daughter are plan.mp_transform. The
    daughter itself is root_c * sum_s u[s] kappa(n + s), one mp_dot per
    grid index n, with u[s] = FPa(s) w(s) kappa(n_b + s) formed once
    per position.
    """
    plan = spec.plan
    grid, v = plan.grid, plan.v
    # kap is a list: an index sum off [2 n_low, 2 n_high] would wrap or
    # shorten a slice rather than fail
    off = [n for n in (*position_indices, *xi_indices)
           if not grid.n_low <= n <= grid.n_high]
    if off:
        raise ValueError(f"position or spectral index {off[0]} is off the "
                         f"grid [{grid.n_low}, {grid.n_high}]")
    k_lo = 2 * grid.n_low
    idx = [int(n) for n in grid.indices]
    worst = 0.0
    ctx = mp_context(dps)
    prec = ctx.prec
    make = ctx.make_mpf
    qmp = ctx.mpf(grid.q)
    cmp_ = ctx.mpf(plan.c_qv)
    wexp = weight_exponent(v)
    kap = plan.kappa_row(dps)
    weights = plan.mp_weights(idx, dps)
    psi_mp = {n: ctx.mpf(val) for n, val in spec.mp_values.items()}
    psi = {n: val._mpf_ for n, val in psi_mp.items()}

    def window(t):
        """kappa(n + t) for every grid index n, in idx order."""
        lo = t + grid.n_low - k_lo
        return kap[lo:lo + grid.size]

    for m in scale_indices:
        root_a = ctx.sqrt(qmp ** m)
        dil = qmp ** (-m * wexp)
        psi_a = {n + m: (dil * val)._mpf_ for n, val in psi_mp.items()}
        if min(psi_a) < grid.n_low or max(psi_a) > grid.n_high:
            raise ValueError(f"scale index {m} pushes the mother off the grid")
        FPa = plan.mp_transform(psi_a, idx, dps)
        FPa_w = [mpf_mul(FPa[s], weights[s], prec, round_nearest)
                 for s in idx]
        mother = plan.mp_transform(psi, [m + s for s in xi_indices], dps)
        profile = {s: root_a * make(mother[m + s]) for s in xi_indices}
        root_c = root_a * cmp_
        for n_b in position_indices:
            u = [mpf_mul(val, k, prec, round_nearest)
                 for val, k in zip(FPa_w, window(n_b))]
            daughter = {n: (root_c * make(mp_dot(u, window(n), prec)))._mpf_
                        for n in idx}
            lhs = plan.mp_transform(daughter, xi_indices, dps)
            rhs = {s: profile[s] * make(kap[n_b + s - k_lo])
                   for s in xi_indices}
            ref = max(abs(val) for val in rhs.values())
            err = max(abs(make(lhs[s]) - rhs[s]) for s in xi_indices) / ref
            worst = max(worst, float(err))
    return worst
