"""q-Bessel kernels: the normalized series, the two-parameter modified
kernel, the generalized second-order q-difference operator, and the
library's one high-precision layer: the on-lattice kernel table, kappa
rows, the exact dot product, and the table of working precisions.

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
import math
import weakref

import mpmath
from mpmath.libmp import (from_man_exp, mpf_abs, mpf_add, mpf_lt, mpf_mul,
                          round_nearest)

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


# --- precision table -----------------------------------------------------

# Digits of every high-precision block: kernel table entries, the kappa
# row a plan's float64 matrix is rounded from, the two mothers, and
# factorization_error's sums. spectrum_dps gives spectrum's.
KERNEL_DPS = 240
FLOAT_ROW_DPS = 60
MOTHER_DPS = 300
FACTORIZATION_DPS = 100


def spectrum_dps(q, depth):
    """spectrum's working precision when its indices reach |n| = depth."""
    return int(2 * depth * math.log10(1.0 / q)) + 80


# --- on-lattice kernel table ---------------------------------------------

class _Table(dict):
    """A kernel table: {s: mpf}. A dict that _tables can refer to weakly."""
    __slots__ = ("__weakref__",)


# (nu, q) -> the table last built for it, while something else (a plan)
# holds it.
_tables = weakref.WeakValueDictionary()

# How far past the deepest requested index the recurrence is seeded.
RECURRENCE_BUFFER = 8


# A context holds about 60 KB. A verify run uses 19 precisions and the
# nine sweep cells 9, so this bound never evicts one in a run.
@functools.lru_cache(maxsize=32)
def mp_context(dps):
    """The library's private mpmath context at dps digits, one per dps
    among the 32 last used.

    Its precision is set before it is returned and never changed, so a
    block computing on it depends on neither mpmath.mp nor other threads.
    An mpf stays valid after its context is evicted.
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

    The series and x^2 run on raw mpf tuples, through the libmp calls
    that mpf * mpf and mpf + mpf make (mpf_mul, mpf_add, round to
    nearest at the context's precision), so every entry is the one the
    mpf objects give. The stopping test |term| < tiny |tot| is read off
    the operands' magnitude exponents (exp + bitcount) where they
    decide it, and computed exactly where they do not.
    """
    ctx = mp_context(KERNEL_DPS)
    prec = ctx.prec
    qq = ctx.mpf(q)
    Q = qq * qq
    Qnu = Q ** ctx.mpf(nu)
    tiny = (ctx.mpf(10) ** (-KERNEL_DPS - 5))._mpf_
    # |term| < 2^(e_term) and tiny |tot| >= 2^(e_tiny + e_tot - 2) after
    # rounding; |term| >= 2^(e_term - 1) and tiny |tot| <= 2^(e_tiny + e_tot).
    e_tiny = tiny[2] + tiny[3]
    one = ctx.mpf(1)._mpf_
    ratios = [None]  # ratios[k] is r_k as a raw tuple, built on first use
    Qk = ctx.mpf(1)
    out = _Table()

    def ratio(k):
        nonlocal Qk
        while len(ratios) <= k:
            Qk *= Q
            denom_a = 1 - Qnu * Qk
            if abs(denom_a) < DEGENERATE_TOL:
                raise DegenerateParameterError(
                    f"q-Pochhammer factor ~0 at n={len(ratios)} "
                    f"for order {nu}")
            ratios.append((-Qk / (denom_a * (1 - Qk)))._mpf_)
        return ratios[k]

    def converged(term, tot):
        if term[1] and tot[1]:
            gap = term[2] + term[3] - tot[2] - tot[3] - e_tiny
            if gap <= -2:
                return True
            if gap >= 1:
                return False
        return mpf_lt(mpf_abs(term), mpf_mul(tiny, mpf_abs(tot), prec,
                                             round_nearest))

    def series(s, x2):
        term = tot = one
        n = 0
        while True:
            n += 1
            term = mpf_mul(term, mpf_mul(ratio(n), x2, prec, round_nearest),
                           prec, round_nearest)
            tot = mpf_add(tot, term, prec, round_nearest)
            if converged(term, tot):
                return ctx.make_mpf(tot)
            if n > 800:
                raise TruncationError(f"high-precision series stalled at s={s}")

    x2 = one
    Q_raw = Q._mpf_
    for s in range(s_max + 1):
        out[s] = series(s, x2)
        x2 = mpf_mul(x2, Q_raw, prec, round_nearest)
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

    The cache refers to a table weakly: it keeps it while a caller holds
    it (each TransformPlan holds its own), and drops it after the last
    holder goes. So a sweep over many (nu, q) keeps only the tables its
    live plans use.

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


def kappa_row(tab, grid, v, dps):
    """kappa(t) = q^{-2 beta (t+beta)} j_nu(q^t; q^2) at dps digits for
    every index sum t in [2 n_low, 2 n_high] of the grid, as a list of
    raw mpf tuples (mp_dot's operand form) starting at 2 n_low, from
    tab, a lattice_kernel table for (v.nu, grid.q) over at least that
    range. It reads tab only, so the row does not depend on what the
    cache holds now.

    One power, then one libmp.mpf_mul by q^{-2 beta} per step (the call
    mpf * mpf makes, without the object): no mpmath power per entry.
    """
    t_lo, t_hi = 2 * grid.n_low, 2 * grid.n_high
    ctx = mp_context(dps)
    prec = ctx.prec
    qmp = ctx.mpf(grid.q)
    b = ctx.mpf(v.beta)
    step = (qmp ** (-2 * b))._mpf_
    p = (qmp ** (-2 * b * (t_lo + b)))._mpf_
    row = []
    for t in range(t_lo, t_hi + 1):
        row.append(mpf_mul(p, tab[t]._mpf_, prec, round_nearest))
        p = mpf_mul(p, step, prec, round_nearest)
    return row


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
