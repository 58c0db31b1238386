"""Wavelets on the q-grid: admissibility, daughter wavelets, the
continuous wavelet transform, and the Plancherel-type energy ratio.

The transform is computed through the spectral side: the coefficient row
at scale q^m is sqrt(a) times the transform of (mother spectrum profile
at shifted indices) * (input spectrum). The direct route, a Jackson sum
of f against each daughter, is kept for cross-checks; the two agree to
float round-off at moderate scales but the spectral route stays accurate
over the whole scale set. A WaveletPlane builds its rows on demand, and
its gated integrals build only the rows that a rigorous per-scale bound
on the float64 contribution cannot settle (_scale_bounds).

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
from numpy.lib.stride_tricks import sliding_window_view

from qwave.qbessel import (FACTORIZATION_DPS, MOTHER_DPS, fsum_rows,
                           mp_context, mp_dot, q_bessel_operator)
from qwave.qgrid import (GridFunction, dilate, mp_weight_exponent,
                         weight_exponent)
from qwave.qtransform import spectrum, translate

GATE_REL_TAIL = 1e-13
GATE_RUN = 3
# log2 of 2^-1075, half the least subnormal: the most a product that
# underflows is rounded by
_LOG2_UNDERFLOW = -1075.0
# rows per block of the bound sums, so that none makes an N x N temporary
_BLOCK = 64


class WaveletSpec:
    """A mother wavelet with its admissibility constant and the spectrum
    profile over the extended index range the transform needs, as one
    float64 array: profile[i] is the profile at index
    scale_indices[0] + n_low + i. windows is the profile's sliding
    window view: windows[i] is the window that the row at scale
    scale_indices[i] reads, the profile at m + n for every grid index n,
    and roots[i] is that row's factor sqrt(q^m)."""

    __slots__ = ("mother", "admissibility", "plan", "mp_values",
                 "scale_indices", "profile", "windows", "roots",
                 "_term_bounds")

    def __init__(self, mother, plan, admissibility, mp_values, scale_indices,
                 profile):
        self.mother = mother
        self.plan = plan
        self.admissibility = admissibility
        self.mp_values = mp_values
        self.scale_indices = scale_indices
        self.profile = profile
        self.windows = sliding_window_view(profile, plan.grid.size)
        q = plan.grid.q
        self.roots = np.array([math.sqrt(q ** float(m))
                               for m in scale_indices])
        # (transformed, d bytes) -> the term's part of the scale bounds
        self._term_bounds = {}


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
        bad = np.flatnonzero(~np.isfinite(coeffs).all(axis=1))
        if bad.size:
            raise ValueError(
                "scaleogram entries must be finite: the row at scale index "
                f"m = {scale_indices[bad[0]]} leaves float64 (q = {grid.q:g})")
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
        p ** 2 for p in profile[grid.n_low - prof_lo:
                                grid.n_high - prof_lo + 1].tolist())
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
    raw = {0: ctx.mpf(1), 2: -qmp ** (-2 * (2 * ctx.mpf(plan.v.alpha) + 2))}
    return _normalized_mp_mother(plan, raw)


def operator_mother(plan):
    """The generalized q-Bessel operator (qbessel.q_bessel_operator)
    applied to the bump (1, 2, 1) at indices (-1, 0, 1); the operator
    output is mean-free by construction."""
    ctx = mp_context(MOTHER_DPS)
    q = plan.grid.q
    bump = [ctx.mpf(c) for c in (0, 0, 1, 2, 1, 0, 0)]  # indices -3 to 3
    ns = range(-2, 3)
    rows = [(*bump[n + 2:n + 5], ctx.mpf(q) ** (2 * n)) for n in ns]
    raw = dict(zip(ns, q_bessel_operator(ctx, q, plan.v, rows)))
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


def scale_rows(Ff, spec, scale_indices=None):
    """Coefficient rows C(q^m, .) over the full position grid via the
    spectral route from the input's spectrum array Ff, for any admissible
    scale indices in any order (every admissible scale by default), as
    one block: row i is the scale scale_indices[i].

    Row m is sqrt(q^m) c M (w (spec.windows row of m) Ff), for the
    plan's kernel M, weights w and normalization c, with the steps
    taken in that order: the window, weight and c products as block
    operations, M x as one GEMV per row (a GEMM over the block rounds
    differently), and sqrt(q^m), from spec.roots, as one block multiply:
    the same IEEE product, entry by entry, as a float per row. So each
    row has the bits of the same steps on that row alone.

    The GEMVs are plan.gemv: one stacked np.matmul of the plan's
    column-scaled kernel with the block times the column powers 2^k_j
    as a stack of (n, 1) columns, which calls BLAS's GEMV once per
    stacked row. Each product is exact-scaled, M_ij 2^-k_j times
    x_j 2^k_j, the real number M_ij x_j, so each row has the bits of
    np.dot(M, x_i); the operands that the weights leave subnormal are
    lifted to normal floats, which the GEMV multiplies at full speed."""
    plan = spec.plan
    if scale_indices is None:
        block = slice(None)
    else:
        first, last = spec.scale_indices[0], spec.scale_indices[-1]
        off = [m for m in scale_indices if m not in range(first, last + 1)]
        if off:
            raise ValueError(
                f"scale index {off[0]} pushes the mother off the grid")
        block = np.array(scale_indices, dtype=np.intp) - first
    # 2-D operands keep a one-row block off numpy's broadcasting path
    x = spec.windows[block] * Ff[None]
    x *= plan.weights[None]
    rows = plan.gemv(x)
    rows *= plan.c_qv
    rows *= spec.roots[block, None]
    return rows


class WaveletPlane:
    """The coefficient plane C(a, b) of one input f under one wavelet:
    f's spectrum array Ff, computed when the plane is made, the rows
    C(q^m, .), each built through scale_rows when first asked for and
    kept, and the position moment, integrated when first asked for and
    kept. Every plane integral reads it through its integral method,
    which builds only the rows its gated sum cannot settle without."""

    __slots__ = ("f", "spec", "Ff", "_rows", "_moment")

    def __init__(self, f, spec):
        self.f = f
        self.spec = spec
        self.Ff = spectrum(f, spec.plan)
        self._rows = {}
        self._moment = None

    def rows(self, ms):
        """The coefficient rows C(q^m, .) at the scales ms, as a
        (len(ms), N) block in that order. The scales not built yet are
        built in ascending order, _BLOCK per scale_rows call, and kept."""
        todo = sorted(set(ms).difference(self._rows))
        for i in range(0, len(todo), _BLOCK):
            block = todo[i:i + _BLOCK]
            self._rows.update(zip(block, scale_rows(self.Ff, self.spec,
                                                    block)))
        return np.stack([self._rows[m] for m in ms])

    def position_moment(self):
        """I_R = plane.integral of b^2 |C|^2 w(b), and the frozenset of
        scales the gated sum used, integrated on the first call and kept.

        On a deep grid b^2 w(b) itself can overflow float64 (q = 0.3 on
        [-160, 320]). Where it does, the term is formed as
        (b sqrt(w(b)) C)^2, which stays finite. Elsewhere it is
        (b^2 w(b)) C C, whose rounding the frozen verify numbers were
        computed with. The position factor d the integral's bound reads
        is sqrt(b^2 w(b)) or b sqrt(w(b)) to match."""
        if self._moment is None:
            plan = self.spec.plan
            points, weights = plan.grid.points, plan.weights
            with np.errstate(over="ignore", invalid="ignore"):
                x2w = points ** 2 * weights
                finite = np.isfinite(x2w)
                if finite.all():
                    total, used = self.integral(
                        lambda rows: x2w * rows * rows, np.sqrt(x2w))
                else:
                    xsw = points * np.sqrt(weights)
                    total, used = self.integral(
                        lambda rows: np.where(finite, x2w * rows * rows,
                                              (xsw * rows) ** 2),
                        np.where(finite, np.sqrt(x2w), xsw))
            self._moment = total, frozenset(used)
        return self._moment

    def integral(self, term, d, transformed=False):
        """Jackson sum of term over the plane against d_q b d_q a / a^2:
        per scale q^m, (1-q)/q^m times the fsum of row m of
        term(rows), which carries its own position weight, then
        gated_scale_sum over the scales. Returns (total, set of scale
        indices summed).

        term maps a (k, N) block of rows to the (k, N) block of their
        terms, each with the bits that term gives its row alone. It must
        be d^2 (L row)^2 entry by entry, for the array d of non-negative
        position factors, L the identity, or with transformed the
        transform itself (plan.fourier_values, one GEMV per row), and
        formed as (v * v) * d^2, (d^2 * v) * v or (d * v)^2 with
        v = L row. Then _scale_bounds bounds each scale's contribution
        without its row, and gated_scale_sum builds a row only where
        that bound cannot settle the gate, so the result is bit for bit
        the sum over every row. The gate asks for at most three batches
        of scales, in ascending order as the bounds are; each is taken
        _BLOCK rows at a time, and each block's row sums are
        qbessel.fsum_rows, math.fsum's bits. A contribution that leaves
        float64 raises a ValueError naming its scale."""
        q = self.spec.plan.grid.q

        def contributions(ms):
            found = []
            for i in range(0, len(ms), _BLOCK):
                block = ms[i:i + _BLOCK]
                with np.errstate(over="ignore", invalid="ignore"):
                    terms = term(self.rows(block))
                try:
                    sums = fsum_rows(terms).tolist()
                except OverflowError:  # math.fsum's, for a row's sum
                    sums = [_fsum_or_inf(row) for row in terms]
                for m, s in zip(block, sums):
                    found.append((1.0 - q) / (q ** float(m)) * s)
                    if not math.isfinite(found[-1]):
                        raise ValueError(f"the plane's term leaves float64 "
                                         f"at scale index m = {m} (q = {q:g})")
            return found

        return gated_scale_sum(_scale_bounds(self, d, transformed),
                               contributions)


def _fsum_or_inf(row):
    """math.fsum of a row of non-negative floats, inf where it overflows."""
    try:
        return math.fsum(row.tolist())
    except OverflowError:
        return math.inf


def cwt(f, spec, scale_indices=None):
    """Continuous wavelet transform as a Scaleogram over the full position
    grid, for any admissible scale indices; scale_indices defaults to
    every admissible scale. The coefficients are scale_rows' block; a
    row that leaves float64 raises Scaleogram's ValueError."""
    grid = spec.plan.grid
    Ff = spectrum(f, spec.plan)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = scale_rows(Ff, spec, scale_indices)
    if scale_indices is None:
        scale_indices = spec.scale_indices
    return Scaleogram(scale_indices, grid.indices.tolist(), rows, grid)


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


def gated_scale_sum(bounds, contributions):
    """Sum per-scale contributions walking outward from the peak; each
    direction stops after GATE_RUN consecutive scales below GATE_REL_TAIL
    of the running total.

    True contributions decay super-geometrically away from the peak, but
    the float64 noise floor under them grows like 1/a toward deep
    dilations; an ungated sum over a wide scale window picks that noise
    up. The gate never reaches it.

    bounds is {m: B_m} over the contiguous scale window, each B_m at
    least the contribution at scale m, or +inf or NaN, which settle
    nothing, and contributions(ms) returns the contributions at a list
    of scales, in that order. It is called at most three times, and
    never for a scale twice:
    1. for the scale of largest bound, whose contribution c sets the
       floor GATE_REL_TAIL * c;
    2. for every other scale whose bound is not below the floor;
    3. only if a contribution computed is negative or NaN, for every
       scale left.
    The walk is then the walk over every contribution, with a scale
    never computed counting as falling. That is exact. After step 3
    every scale is computed. Otherwise every contribution computed is
    >= 0, so the peak is >= c and the float running total never drops
    below c: every tail GATE_REL_TAIL * total is >= the floor, and a
    scale not computed has a bound, and so a contribution, below the
    floor: below every tail, and below the peak, so not tied with it.

    Returns (total, set of scale indices actually summed).
    """
    exact = {}

    def compute(ms):
        if ms:
            exact.update(zip(ms, contributions(ms)))

    top = max(bounds, key=bounds.get)
    compute([top])
    floor = GATE_REL_TAIL * exact[top]
    compute([m for m in bounds if m != top and not bounds[m] < floor])
    if not all(v >= 0.0 for v in exact.values()):
        compute([m for m in bounds if m not in exact])
    mpeak = max(sorted(exact), key=exact.get)
    used = [mpeak]
    total = exact[mpeak]
    for step in (1, -1):
        falling = 0
        m = mpeak
        while True:
            m += step
            if m not in bounds:
                break
            if m not in exact or exact[m] < GATE_REL_TAIL * total:
                falling += 1
                if falling >= GATE_RUN:
                    break
            else:
                falling = 0
                used.append(m)
                total += exact[m]
    return math.fsum(exact[m] for m in used), set(used)


def _log2_sum_exp2(x):
    """log2 of the sum of 2^x along the last axis of x, which it
    overwrites. Each row is shifted by its maximum, so no power overflows
    and the largest is 1; the powers that underflow lose at most
    n 2^-1074 of the sum. A row of -inf gives -inf, one holding inf
    gives inf."""
    top = x.max(axis=-1, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    x -= shift
    np.exp2(x, out=x)
    return shift[..., 0] + np.log2(x.sum(axis=-1))


def _log2_abs_matvec(plan, log_v, power=1.0):
    """log2(|M|^power @ 2^log_v) for the plan's kernel M, which is
    Hankel, so also |M|^T's, one block of rows of the plan's scaled
    kernel S at a time, read in row order. The term of M_ij is formed
    as power fl(log2 |S_ij|) + fl(log_v_j + power k_j), not as the log
    of M_ij undone exactly. Each step rounds a number under 2^13 in
    magnitude, so a term's exponent is off by under 2^-36, a factor
    under 1 + 2^-36, which _scale_bounds' factor 4 covers."""
    A = plan.scaled_kernel
    shift = log_v + power * plan.kernel_exponents
    out = np.empty(A.shape[0])
    for i in range(0, A.shape[0], _BLOCK):
        blk = np.abs(A[i:i + _BLOCK])
        np.log2(blk, out=blk)
        blk *= power
        blk += shift
        out[i:i + _BLOCK] = _log2_sum_exp2(blk)
    return out


def _term_bound(spec, d, transformed):
    """The part of a term's scale bounds that does not depend on the
    input, built once per spec and term (keyed by transformed and the
    bytes of d) and kept with the spec. See _scale_bounds for the
    bound; every quantity here is an upper bound, formed in log2 with
    max-shifted sums, since x^2 w and d |M| overflow float64 on deep
    grids.

    Returns (cols, log_top, slack_n, slack_s): the columns G_j and K_j
    as 2^log_top cols, with entries >= 2^-1074, and the log2 slacks of
    the bound. K_j bounds column j of every matrix a step of the row and
    term applies to X_m, so sum_j |X_mj| K_j bounds every step."""
    key = (transformed, d.tobytes())
    if key in spec._term_bounds:
        return spec._term_bounds[key]
    plan = spec.plan
    n = plan.grid.size
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # D = d + sqrt(2^-1075) absorbs the underflow of one term form
        log_d = np.logaddexp2(np.log2(d), 0.5 * _LOG2_UNDERFLOW)
        log_w = np.log2(plan.weights)
        log_c = math.log2(plan.c_qv)
        log_dnorm = 0.5 * _log2_sum_exp2(2.0 * log_d)
        # G_j = ||D |M|_{:,j}||, then for L = c M diag(w) its Minkowski
        # bound c sum_k |M_kj| w_k G_k (M is symmetric)
        log_g = 0.5 * _log2_abs_matvec(plan, 2.0 * log_d, 2.0)
        # the overflow check's column: max_i of |M| and, through the
        # transform, of |M| W and |M| W |M|, W = diag(w), entry by entry;
        # column j's extremes are those of S's column j times 2^k_j
        scaled = plan.scaled_kernel
        log_k = plan.kernel_exponents + np.log2(
            np.maximum(scaled.max(axis=0), -scaled.min(axis=0)))
        if transformed:
            log_mw = _log2_abs_matvec(plan, log_w)
            log_g = log_c + _log2_abs_matvec(plan, log_w + log_g)
            log_a = log_c + 0.5 * _log2_sum_exp2(2.0 * (log_d + log_mw))
            log_e = np.logaddexp2(
                log_c + 0.5 * _log2_sum_exp2(
                    2.0 * (log_d + _log2_abs_matvec(plan, np.zeros(n)))),
                math.log2(plan.c_qv * n + 1.0) + log_dnorm)
            log_k = np.maximum.reduce([
                log_k, log_mw, _log2_abs_matvec(plan, log_k + log_w)])
        else:
            log_a, log_e = log_dnorm, -math.inf
        slack_n = _LOG2_UNDERFLOW + math.log2(n + 2.0 / plan.c_qv) + log_a
        slack_s = np.logaddexp2(
            _LOG2_UNDERFLOW + np.logaddexp2(log_a, log_e),
            0.5 * (1.0 + math.log2(n) + _LOG2_UNDERFLOW))
        # both columns, each scaled by 2^-(its maximum)
        log_cols = np.stack([log_g, log_k], axis=1)
        log_top = log_cols.max(axis=0)
        cols = np.maximum(np.exp2(log_cols - log_top), 2.0 ** -1074)
    found = spec._term_bounds[key] = (cols, log_top, float(slack_n),
                                      float(slack_s))
    return found


def _scale_bounds(plane, d, transformed):
    """{m: B_m}: an upper bound on the float64 contribution
    (1-q)/q^m fsum(term(row)) of every scale m, from the input's spectrum
    alone, for a term of plane.integral's form.

    Row m is s c M X_m rounded, with s = sqrt(q^m), c = plan.c_qv, M the
    plan's matrix and X_m = w (profile window) Ff as fourier_values
    forms it. With G_j = ||D (|L| |M|)_{:,j}|| and D = d + 2^-537.5,
    Minkowski and the any-order summation bound
    |fl(sum a_i)| <= (1 + gamma_n) sum |a_i| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3-4) give
        contribution <= B_m = 4 (1-q) c^2 (sum_j |X_mj| G_j + slack_n
                                           + slack_s / (s c))^2 + 2^-1073,
    whatever the order, blocking or FMA use of the BLAS sums. The slacks
    bound what products that underflow can add (each is off by at most
    2^-1075); 4 covers a factor 2 for the (v * v) form, and gamma_N and
    the log2 evaluation with a wide margin. B_m is infinite where the
    proof's premises fail: the prefactor (1-q)/q^m is not a normal
    float, or a step of the row or term could overflow."""
    spec = plane.spec
    plan = spec.plan
    q, n, c = plan.grid.q, plan.grid.size, plan.c_qv
    cols, log_top, slack_n, slack_s = _term_bound(spec, d, transformed)
    ms = spec.scale_indices
    sums = np.empty((len(ms), 2))
    for i in range(0, len(ms), _BLOCK):
        x = spec.windows[i:i + _BLOCK] * plane.Ff
        x *= plan.weights
        np.abs(x, out=x)
        sums[i:i + _BLOCK] = x @ cols
    a = np.array([q ** float(m) for m in ms])
    s = np.sqrt(a)
    pre = (1.0 - q) / a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_s = np.log2(s)
        # sum_j |X_mj| G_j and sum_j |X_mj| K_j: x @ cols is off by at
        # most gamma_N and n 2^-1075 in all
        log_xg, log_y = (log_top + np.logaddexp2(
            np.log2(sums), math.log2(n) + _LOG2_UNDERFLOW)).T
        log_bracket = np.logaddexp2(np.logaddexp2(log_xg, slack_n),
                                    slack_s - log_s - math.log2(c))
        bound = np.exp2(2.0 + math.log2(1.0 - q) + 2.0 * math.log2(c)
                        + 2.0 * log_bracket) + 2.0 ** -1073
        # no step overflows: each step of the row and of L row stays
        # below 2^500, and the terms' sum, at most 2 (s c bracket)^2,
        # below 2^1000
        safe = ((pre >= np.finfo(float).tiny) & (pre < math.inf)
                & (log_y + 2.0 * max(math.log2(c), 0.0)
                   + np.maximum(log_s, 0.0) < 500.0)
                & (log_s + math.log2(c) + log_bracket < 499.0))
    bound[~safe | np.isnan(bound)] = math.inf
    return dict(zip(ms, bound.tolist()))


def wavelet_plancherel_ratio(plane):
    """[plane.integral of |C(a,b)|^2 b^{2|v|+1} d_q b d_q a / a^2] over
    ||f||^2 for a WaveletPlane. The position integral always runs over
    the whole grid; restricting it would break the identity."""
    plan = plane.spec.plan
    nf = plan.norm_sq(plane.f.values)
    if nf == 0.0:
        raise ValueError("Plancherel ratio undefined for the zero function")
    total, _ = plane.integral(lambda rows: rows * rows * plan.weights,
                              np.sqrt(plan.weights))
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
    xi_lo, xi_hi = min(xi_indices), max(xi_indices)
    idx = [int(n) for n in grid.indices]
    worst = 0.0
    ctx = mp_context(dps)
    prec = ctx.prec
    make = ctx.make_mpf
    qmp = ctx.mpf(grid.q)
    cmp_ = ctx.mpf(plan.c_qv)
    wexp = mp_weight_exponent(ctx, v)
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
        FPa = plan.mp_transform(psi_a, grid.n_low, grid.n_high, dps)
        FPa_w = [mpf_mul(FPa[s], weights[s], prec, round_nearest)
                 for s in idx]
        mother = plan.mp_transform(psi, m + xi_lo, m + xi_hi, dps)
        profile = {s: root_a * make(mother[m + s]) for s in xi_indices}
        root_c = root_a * cmp_
        for n_b in position_indices:
            u = [mpf_mul(val, k, prec, round_nearest)
                 for val, k in zip(FPa_w, window(n_b))]
            daughter = {n: (root_c * make(mp_dot(u, window(n), prec)))._mpf_
                        for n in idx}
            lhs = plan.mp_transform(daughter, xi_lo, xi_hi, dps)
            rhs = {s: profile[s] * make(kap[n_b + s - k_lo])
                   for s in xi_indices}
            ref = max(abs(val) for val in rhs.values())
            err = max(abs(make(lhs[s]) - rhs[s]) for s in xi_indices) / ref
            worst = max(worst, float(err))
    return worst
