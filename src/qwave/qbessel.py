"""q-Bessel kernels: the normalized series, the two-parameter modified
kernel, and the generalized second-order q-difference operator.

Two evaluation routes coexist on purpose. The series is the definition
and works at any real argument, but in float64 it loses digits once the
argument grows (terms alternate and the partial sums peak far above the
result); its error bound reports that honestly. On-lattice values, which
the transform machinery consumes by the thousands, come instead from a
backward three-term recurrence run in high precision and normalized
against the series at the origin, which is exact to working precision at
every lattice depth.
"""

import functools

import mpmath

from qwave.qgrid import GridFunction, QGrid

EPS = 2.0 ** -52
# A q-Pochhammer factor 1 - Q^{order+n} below this counts as vanished.
DEGENERATE_TOL = 1e-14
# The float64 series stops at a term below SERIES_REL_TOL times the sum.
SERIES_REL_TOL = 1e-15
SERIES_MAX_TERMS = 200


class DegenerateParameterError(ValueError):
    """A denominator q-Pochhammer factor vanished (order too negative)."""


class TruncationError(RuntimeError):
    """A series did not converge within its term cap."""


def _series_sum(order, x, q):
    """Partial sum of sum_n (-1)^n q^{n(n+1)} x^{2n} / ((q^{2a+2};q^2)_n (q^2;q^2)_n).

    Returns (value, err_bound). The bound is the first omitted term plus
    a round-off floor of eps * (largest partial magnitude) * O(terms);
    the term count matters because each term carries rounding from the
    recursion and each addition rounds the running total, so near q = 1
    (slow convergence) the drift is many ulps even without cancellation.
    """
    Q = q * q
    x2 = x * x
    if x2 == 0.0:
        return 1.0, 0.0
    term = 1.0
    total = 1.0
    peak = 1.0
    for n in range(1, SERIES_MAX_TERMS + 1):
        denom_a = 1.0 - Q ** (order + n)
        denom_b = 1.0 - Q ** n
        if abs(denom_a) < DEGENERATE_TOL or abs(denom_b) < DEGENERATE_TOL:
            raise DegenerateParameterError(
                f"q-Pochhammer factor ~0 at n={n} for order {order}")
        term *= -(Q ** n) * x2 / (denom_a * denom_b)
        total += term
        peak = max(peak, abs(term), abs(total))
        if abs(term) < SERIES_REL_TOL * abs(total):
            denom_a = 1.0 - Q ** (order + n + 1)
            denom_b = 1.0 - Q ** (n + 1)
            omitted = abs(term * (Q ** (n + 1)) * x2 / (denom_a * denom_b))
            return total, omitted + EPS * peak * (5 * n + 5)
    raise TruncationError(
        f"series did not converge within {SERIES_MAX_TERMS} terms (x={x})")


def normalized_q_bessel(alpha, x, q):
    """Normalized q-Bessel series j_alpha(x, q^2); equals 1 at x = 0."""
    value, _ = normalized_q_bessel_bound(alpha, x, q)
    return value


def normalized_q_bessel_bound(alpha, x, q):
    """Same as normalized_q_bessel but returns (value, err_bound)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    return _series_sum(float(alpha), float(x), float(q))


def modified_q_bessel(v, x, q):
    """Two-parameter kernel x^{-2 beta} j_{alpha-beta}(q^{-beta} x, q^2).

    x must be positive: the prefactor is singular at 0 when beta > 0.
    """
    value, _ = modified_q_bessel_bound(v, x, q)
    return value


def modified_q_bessel_bound(v, x, q):
    """Same as modified_q_bessel but returns (value, err_bound)."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"modified kernel needs x > 0, got {x}")
    scale = x ** (-2.0 * v.beta)
    base, bound = normalized_q_bessel_bound(v.nu, q ** (-v.beta) * x, q)
    return scale * base, abs(scale) * bound


def generalized_q_bessel_operator(f, v):
    """[f(x/q) - (q^{2a} + q^{2b}) f(x) + q^{2a+2b} f(qx)] / x^2 on the
    interior points; both neighbors must exist, so the output grid drops
    one index at each end."""
    grid = f.grid
    if grid.size < 3:
        raise ValueError("operator stencil needs at least three grid points")
    q = grid.q
    A = q ** (2.0 * v.alpha) + q ** (2.0 * v.beta)
    B = q ** (2.0 * v.alpha + 2.0 * v.beta)
    out_grid = QGrid(q, grid.n_low + 1, grid.n_high - 1)
    x = grid.points[1:-1]
    vals = (f.values[:-2] - A * f.values[1:-1] + B * f.values[2:]) / (x * x)
    return GridFunction(out_grid, vals)


# --- on-lattice kernel table ---------------------------------------------

_tables = {}

# Working precision of every table entry, and how far past the deepest
# requested index the backward recurrence is seeded.
KERNEL_DPS = 240
RECURRENCE_BUFFER = 8


@functools.lru_cache(maxsize=None)
def mp_context(dps):
    """The library's private mpmath context at dps digits, one per dps.

    Its precision is set before it is returned and never changed, so a
    block computing on it depends on neither mpmath.mp nor other threads.
    """
    ctx = mpmath.MPContext()
    ctx.dps = dps
    return ctx


def _kernel_values(nu, q, s_min, s_max):
    """j_nu(q^s; q^2) for integer s in [s_min, s_max], s_min <= 0 <= s_max,
    as an mpf dict.

    s >= 0 comes straight from the series. s < 0 uses the three-term
    recurrence downward in depth (the target solution dominates in that
    direction, so backward recursion is stable), seeded past the range
    and normalized at s = 0 against the series value.

    No mpmath power runs inside a loop. The series ratios
    r_k = -Q^k / ((1 - Q^{nu+k})(1 - Q^k)), Q = q^2, do not depend on s:
    they are built once, from running products of Q, and every s reuses
    them (term_k = term_{k-1} r_k x^2). The arguments x^2 = Q^s and the
    recurrence's q^{-2k} are running products too.
    """
    ctx = mp_context(KERNEL_DPS)
    qq = ctx.mpf(q)
    Q = qq * qq
    Qnu = Q ** ctx.mpf(nu)
    tiny = ctx.mpf(10) ** (-KERNEL_DPS - 5)
    ratios = [None]  # ratios[k] is r_k, built on first use
    Qk = ctx.mpf(1)
    out = {}

    def ratio(k):
        nonlocal Qk
        while len(ratios) <= k:
            Qk *= Q
            denom_a = 1 - Qnu * Qk
            if abs(denom_a) < DEGENERATE_TOL:
                raise DegenerateParameterError(
                    f"q-Pochhammer factor ~0 at n={len(ratios)} "
                    f"for order {nu}")
            ratios.append(-Qk / (denom_a * (1 - Qk)))
        return ratios[k]

    def series(s, x2):
        term = ctx.mpf(1)
        tot = ctx.mpf(1)
        n = 0
        while True:
            n += 1
            term *= ratio(n) * x2
            tot += term
            if abs(term) < tiny * abs(tot):
                return tot
            if n > 800:
                raise TruncationError(f"high-precision series stalled at s={s}")

    x2 = ctx.mpf(1)
    for s in range(s_max + 1):
        out[s] = series(s, x2)
        x2 *= Q
    if s_min < 0:
        kmax = -s_min
        y_hi = ctx.mpf(0)
        y = ctx.mpf(1)
        q_m2k = Q ** -(kmax + RECURRENCE_BUFFER)
        vals = {}
        for k in range(kmax + RECURRENCE_BUFFER, -1, -1):
            vals[k] = y
            y_lo = ((1 + Qnu - q_m2k) * y - y_hi) / Qnu
            y_hi = y
            y = y_lo
            q_m2k *= Q
        scale = out[0] / vals[0]
        for k in range(1, kmax + 1):
            out[-k] = vals[k] * scale
    return out


def lattice_kernel(nu, q, s_min, s_max):
    """Cached j_nu(q^s; q^2) table over [s_min, s_max] (mpf values).

    The first request for a (nu, q) builds the table over
    [min(s_min, 0), max(s_max, 0)]. A request past the stored range
    rebuilds it with one _kernel_values call over the union of the two
    ranges; a request inside it builds nothing. So every table is what a
    one-shot _kernel_values over its range gives. A deeper rebuild seeds
    the backward recurrence deeper, which moves the s < 0 entries in
    their last digits only: on the acceptance lattice, [-40, 80] against
    [-160, 320] differ by at most 3e-239 relative at s in [-40, -1], and
    in none of their float64 values.

    A rebuild stores a new dict and never changes one returned before,
    so a caller may keep reading a table while another rebuilds it. So
    it needs no lock: threads racing on one table cost at most a
    duplicate build.
    """
    key = (float(nu), float(q))
    tab = _tables.get(key)
    lo, hi = (0, 0) if tab is None else (min(tab), max(tab))
    if tab is None or lo > s_min or hi < s_max:
        tab = _tables[key] = _kernel_values(nu, q, min(s_min, lo),
                                            max(s_max, hi))
    return tab
