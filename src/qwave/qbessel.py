"""q-Bessel kernels: the normalized series, the two-parameter modified
kernel, the generalized second-order q-difference operator and its
eigencheck, and the library's one high-precision layer: the on-lattice
kernel table, kappa rows, the exact dot product and its certified
double-double twin, a certified vectorized math.fsum over the rows of a
block, and the table of working precisions.

One loop, _Series, sums the q-Bessel series: for the on-lattice table
at s >= 0 (a backward recurrence normalized against it fills s < 0),
and for the float64 kernels at any x, rounded once with a rigorous bound.
One function, q_bessel_operator, forms the operator's stencil in mp: for
the operator mother, and for the eigencheck's certified ratios.
"""

import functools
import math
import weakref

import mpmath
import numpy as np
from mpmath.libmp import (fone, from_man_exp, mpf_abs, mpf_add, mpf_lt,
                          mpf_mul, round_nearest)

# A q-Pochhammer factor 1 - Q^{order+n} below this counts as vanished.
DEGENERATE_TOL = 1e-14


class DegenerateParameterError(ValueError):
    """A denominator q-Pochhammer factor vanished (order too negative)."""


class TruncationError(RuntimeError):
    """A series did not converge within its term cap."""


def normalized_q_bessel_bound(alpha, x, q):
    """Normalized q-Bessel series j_alpha(x, q^2), which equals 1 at
    x = 0, as (value, err_bound): see _rounded_kernel."""
    return _rounded_kernel(float(alpha), 0.0, float(x), float(q))


def modified_q_bessel_bound(v, x, q):
    """Two-parameter kernel x^{-2 beta} j_{alpha-beta}(q^{-beta} x, q^2)
    at x > 0 (the prefactor is singular at 0 when beta > 0), as
    (value, err_bound): see _rounded_kernel."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"modified kernel needs x > 0, got {x}")
    return _rounded_kernel(float(v.nu), float(v.beta), x, float(q))


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


# --- the q-Bessel series and the on-lattice kernel table -----------------

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


class _Series:
    """The q-Bessel series j_nu(x; q^2) = sum_k t_k at ctx's precision,
    t_0 = 1, t_k = t_{k-1} r_k x^2, r_k = -Q^k / ((1 - Q^{nu+k})(1 - Q^k)),
    Q = q^2: the one loop in qwave that sums it. Each r_k is built once,
    from a running product of Q. The loop runs on raw tuples through the
    libmp calls of mpf * mpf and mpf + mpf, so its sums are theirs."""

    def __init__(self, nu, q, ctx):
        self.ctx, self.nu, self.q = ctx, nu, q
        self.Q = ctx.mpf(q) * ctx.mpf(q)
        self.Qnu, self._Qk = self.Q ** ctx.mpf(nu), ctx.mpf(1)
        self._ratios = [None]  # _ratios[k] is r_k as a raw tuple
        self._tiny = (ctx.mpf(10) ** (-ctx.dps - 5))._mpf_

    def ratio(self, k):
        while len(self._ratios) <= k:
            self._Qk *= self.Q
            denom_a = 1 - self.Qnu * self._Qk
            if abs(denom_a) < DEGENERATE_TOL:
                raise DegenerateParameterError(
                    f"q-Pochhammer factor ~0 at n={len(self._ratios)} "
                    f"for order {self.nu}")
            self._ratios.append((-self._Qk / (denom_a * (1 - self._Qk)))._mpf_)
        return self._ratios[k]

    def sum(self, x2):
        """(S, K, t_K, peak) at x^2 = x2, a raw tuple: the sum S through
        t_K, as mpfs, for the first K with K + 2 > -nu (any K at nu > -3)
        and |t_K| < 10^-(dps + 5) |S|; every partial sum, 1 and S too, is
        below 2^peak. A TruncationError past 800 terms."""
        ctx, tiny, ratios = self.ctx, self._tiny, self._ratios
        prec, e_tiny = ctx.prec, tiny[2] + tiny[3]
        term, tot, n, peak = fone, fone, 0, 1
        while True:
            n += 1
            r = ratios[n] if n < len(ratios) else self.ratio(n)
            term = mpf_mul(term, mpf_mul(r, x2, prec, round_nearest), prec,
                           round_nearest)
            tot = mpf_add(tot, term, prec, round_nearest)
            e_tot = tot[2] + tot[3]
            if e_tot > peak:
                peak = e_tot
            # exponents (exp + bitcount) decide |term| < tiny |tot| unless
            # 2^(e_term - 1) <= |term| < 2^e_term straddles tiny |tot|
            gap = term[2] + term[3] - e_tot - e_tiny
            if n + 2 > -self.nu and (
                    gap <= -2 if term[1] and tot[1] and not -2 < gap < 1
                    else mpf_lt(mpf_abs(term), mpf_mul(
                        tiny, mpf_abs(tot), prec, round_nearest))):
                return ctx.make_mpf(tot), n, ctx.make_mpf(term), peak
            if n > 800:
                raise TruncationError(
                    "series did not converge within 800 terms")


def _rounded_kernel(nu, beta, x, q):
    """x^{-2 beta} j_nu(q^{-beta} x; q^2) (x = 0 only at beta = 0) as
    (value, err_bound): value = float(V), and (|value - V| + E)(1 + 2^-50)
    raised to the next float bounds its distance from the exact kernel
    (_kernel_enclosure). Ziv's scheme (ACM TOMS 17, 1991): where E is not
    below value's half-ulp, one more pass adds the digits the sum lost.
    A value past float64 raises a ValueError."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    if x == 0.0:
        return 1.0, 0.0
    dps = KERNEL_DPS
    for _ in range(2):
        ctx = mp_context(dps)
        V, E, lost = _kernel_enclosure(_Series(nu, q, ctx), beta,
                                       ctx.mpf(x), 0, x)
        value = float(V)
        if not math.isinf(value) and E < math.ulp(value) / 2:
            break
        dps += math.ceil(lost * math.log10(2))
    if math.isinf(value):
        raise ValueError(f"the kernel value {ctx.nstr(V, 5)} at x = {x!r} "
                         "leaves float64")
    bound = (abs(V - value) + E) * (1 + 2.0 ** -50)
    return value, math.nextafter(float(bound), math.inf)


def _kernel_enclosure(series, beta, x, roundings, at):
    """(V, E, lost): the kernel x^{-2 beta} j_nu(q^{-beta} x; q^2) at an
    mpf x != 0 in the context of series = _Series(nu, q, ctx), a rigorous
    bound E on its distance from the kernel at the x* that x was rounded
    from `roundings` times (0 or 1), and the bits the sum lost,
    log2(peak partial / |sum|), at most the precision. A TruncationError
    names at as its x.

    E at p bits, u = 2^-p, after Higham (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 3): an mp operation is within u,
    mpmath's s^t within 16 (1 + |t ln s|) u (measured: a sixteenth of
    that). Errors are relative, in units of u, first order times 1.01,
    which holds while lam <= 2^-20 (else, or at rho >= 1/2, E = inf).
    1. Q = q q, Q^k (a running product) and Q^nu are off by 1, 2.02 k and
       e_nu = 1.01 |nu| + 16 (1 + 2 |nu ln q|). As |1 - Q^{nu+k}| >= 2^-47
       (DEGENERATE_TOL) and 1 - Q^k >= 1 - q >= 2^-53, r_k is off by
       2^55 (k + 1) + 2^48 e_nu; x^2 = (q^{-beta} x)^2 from x* by e_x =
       2.02 (17 + roundings + 16 |beta ln q|) + 1.
    2. t_k, k <= K + 2 (k ratios and arguments, 2k roundings), is off by
       lam = 1.01 (K + 2)(2^55 (K + 3) + 2^48 e_nu + e_x + 2) u. A computed
       term, a difference of partial sums, is below 2.01 P, P = 2^peak:
       the K terms are off by 2.01 lam K P, the K additions by u K P.
    3. From k = K + 2 on, both factors of r_k's denominator lie in (0, 1)
       and grow, so |r_k| falls: the tail is below |t_{K+1}| / (1 - rho)
       <= 2.01 |t_{K+1}| for rho = |r_{K+2} x^2| < 1/2, both as the loop
       forms them. So S is off by E_S = K P (u + 2.01 lam) + 2.01 |t_{K+1}|.
    4. pi = x^{-2 beta} is off from x*^{-2 beta} by eps = (16 (1 + 2
       |beta ln x|) + 2.02 |beta| roundings) u, and V = pi S rounds
       within 2 u |V|: |V - kernel at x*| is below
       E = 2 u |V| + |pi| (1 + 2 eps)(eps |S| + E_S).
    """
    ctx, nu, q = series.ctx, series.nu, series.q
    u = ctx.ldexp(1, -ctx.prec)
    ln_q = -math.log(q)
    x2 = (ctx.mpf(q) ** -ctx.mpf(beta) * x) ** 2
    try:
        S, K, t_K, peak = series.sum(x2._mpf_)
    except TruncationError as exc:
        raise TruncationError(f"{exc} (x={at!r})") from None
    r1, rho = (ctx.make_mpf(series.ratio(k)) * x2 for k in (K + 1, K + 2))
    pi = x ** (-2 * ctx.mpf(beta))
    V = pi * S
    # 2^48 e_nu + e_x + 2
    e_r = 2.0 ** 48 * (1.01 * abs(nu) + 16 * (1 + 2 * abs(nu) * ln_q)) + (
        2.02 * (17 + roundings + 16 * abs(beta) * ln_q) + 3)
    lam = 1.01 * (K + 2) * (2.0 ** 55 * (K + 3) + e_r) * u
    eps = (16 * (1 + 2 * abs(beta * ctx.ln(abs(x))))
           + 2.02 * abs(beta) * roundings) * u
    E_S = K * ctx.ldexp(1, peak) * (u + 2.01 * lam) + 2.01 * abs(t_K * r1)
    if lam > 2.0 ** -20 or not abs(rho) < 0.5:
        E_S = ctx.inf
    E = 2 * u * abs(V) + abs(pi) * (1 + 2 * eps) * (eps * abs(S) + E_S)
    return V, E, min(peak - ctx.mag(S), ctx.prec)


def q_bessel_operator(ctx, q, v, rows):
    """Delta_{alpha,beta} f(x) = [f(x/q) - (q^{2 alpha} + q^{2 beta}) f(x)
    + q^{2 alpha + 2 beta} f(qx)] / x^2 for each (f(x/q), f(x), f(qx), x^2)
    in rows, at ctx's precision, as a list. The modified kernel at lam x
    is its eigenfunction, with eigenvalue -lam^2."""
    qmp = ctx.mpf(q)
    alpha, beta = ctx.mpf(v.alpha), ctx.mpf(v.beta)
    A = qmp ** (2 * alpha) + qmp ** (2 * beta)
    B = qmp ** (2 * (alpha + beta))
    return [(lo - A * mid + B * hi) / x2 for lo, mid, hi, x2 in rows]


def eigencheck_ratios(v, lam, grid):
    """(x, (Delta K)(x) / K(x)) at each interior grid point x, for K the
    modified kernel at lam x: the ratio is -lam^2, rounded once to
    float64 where its bound E cannot change the rounding: r - E and
    r + E round alike. Else one more pass adds the bits lost (Ziv's
    scheme): the sums', plus the stencil's, log2(M_q / |R|), or where R
    has no correct bit, the log2(1 / y^2) of Delta K = -lam^2 K. Else a
    ValueError names x.

    E at p bits, u = 2^-p, first order times 1.01:
    1. Values f, mid = K(y) among them, at y = lam x (exact) and its
       neighbours y / q and y q (one rounding each) are within E_f of
       the kernel there (_kernel_enclosure).
    2. A and B, both positive, are off by at most (17.2 + 34.4 s) u,
       s = (|alpha| + |beta|) |ln q| (powers, the sum alpha + beta, A's
       sum); x^2 is exact. So with q_bessel_operator's R and its rows of
       the bounds and of the magnitudes, E_q and M_q (each sum of
       positive terms off by 5 u), R is within E_R = 1.01 (E_q + d M_q)
       + u |R| of the exact quotient, d = (40 + 70 s) u <= 2^-20.
    3. r = R / mid is within E = ((E_R + 1.01 |r| E_mid) / (|mid| -
       E_mid) + u |r|)(1 + 2^-40) of the exact ratio, the last factor
       for E's own roundings; E = inf where d > 2^-20 or E_mid >= |mid|.
    """
    if grid.size < 3:
        raise ValueError("operator stencil needs at least three grid points")
    lam, q = float(lam), grid.q
    s = (abs(v.alpha) + abs(v.beta)) * -math.log(q)
    first = _Series(v.nu, q, mp_context(KERNEL_DPS))
    out = []
    for x in grid.points[1:-1].tolist():
        series = first
        for _ in range(2):
            ctx = series.ctx
            u = ctx.ldexp(1, -ctx.prec)
            d = (40 + 70 * s) * u
            y, x2 = ctx.mpf(lam) * x, ctx.mpf(x) ** 2
            V, Ef, lost = zip(*(_kernel_enclosure(series, v.beta, t, n, x)
                                for t, n in ((y / q, 1), (y, 0), (y * q, 1))))
            R, E_q, M_q = q_bessel_operator(ctx, q, v, [
                (*V, x2), (Ef[0], -Ef[1], Ef[2], x2),
                (abs(V[0]), -abs(V[1]), abs(V[2]), x2)])
            r = R / V[1]
            E_R = 1.01 * (E_q + d * M_q) + u * abs(R)
            E = ctx.inf
            if d <= 2.0 ** -20 and Ef[1] < abs(V[1]):
                E = ((E_R + 1.01 * abs(r) * Ef[1]) / (abs(V[1]) - Ef[1])
                     + u * abs(r)) * (1 + 2.0 ** -40)
            a = float(ctx.fsub(r, E, exact=True))
            if a == float(ctx.fadd(r, E, exact=True)):
                break
            bits = ctx.mag(M_q / R) if E_R < abs(R) else -2 * ctx.mag(y)
            series = _Series(v.nu, q, mp_context(ctx.dps + math.ceil(
                math.log10(2) * (max(lost) + max(bits, 0)))))
        else:
            raise ValueError(f"the eigencheck ratio at x = {x:.17g} has no "
                             "correct digit: the series' error bound "
                             "reaches it")
        if math.isinf(a):
            raise ValueError(f"the eigencheck ratio at x = {x:.17g} leaves "
                             "float64")
        out.append((x, a))
    return out


def _kernel_values(nu, q, s_min, s_max):
    """j_nu(q^s; q^2) for integer s in [s_min, s_max], s_min <= 0 <= s_max,
    as an mpf dict: _Series's sums at x^2 = Q^s (a running product) for
    s >= 0, and for s < 0 the three-term recurrence run downward in depth,
    where the target solution dominates, so stably, seeded past the range
    and normalized against the series at s = 0.
    """
    ctx = mp_context(KERNEL_DPS)
    series = _Series(nu, q, ctx)
    Q, Qnu = series.Q, series.Qnu
    out = _Table()
    x2 = fone
    for s in range(s_max + 1):
        out[s] = series.sum(x2)[0]
        x2 = mpf_mul(x2, Q._mpf_, ctx.prec, round_nearest)
    if s_min < 0:
        kmax = -s_min
        y_hi, y = ctx.mpf(0), ctx.mpf(1)
        q_m2k = Q ** -(kmax + RECURRENCE_BUFFER)
        vals = {}
        for k in range(kmax + RECURRENCE_BUFFER, -1, -1):
            vals[k] = y
            y_hi, y = y, ((1 + Qnu - q_m2k) * y - y_hi) / Qnu
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


# --- the certified double-double twin of mp_transform's sum ---------------

# Each term w v kappa of dd_dot is off by less than 2^-100 of its size;
# this keeps a factor 4 above that (dd_dot's bound, step 4).
DD_TERM_EPS = 2.0 ** -98
# Covers, per term or once, an error that underflow makes absolute.
DD_TINY = 2.0 ** -1000
# A zero operand's exponent: below every other, so it never sets a
# row's scale, and far from int64's ends.
_DD_ZERO_EXP = -(1 << 40)
_SPLITTER = 134217729.0  # 2^27 + 1, Dekker's split of a 53-bit double
_LOW53 = (1 << 53) - 1


def dd_split(tuples):
    """Raw mpf tuples as double-double arrays (hi, lo, exp), with exp an
    int64 array: each x truncated toward zero to its top 106 bits is
    x~ = (hi + lo) 2^exp, hi holding bits 1-53 of the mantissa, so
    |hi| lies in [1/2, 1), and lo bits 54-106, with hi's sign. So
    |x - x~| < 2^-105 |x|, |x~| <= |x| and |lo| < 2^-52 |hi|; a mantissa
    of at most 106 bits (a float's, say) is exact. A zero is
    (0, 0, _DD_ZERO_EXP). Infinities and nan raise ValueError, as in
    mp_dot."""
    hi, lo, ex = [], [], []
    for sign, man, exp, bc in tuples:
        if not man:
            if exp:
                raise ValueError("dd_split operand is inf or nan")
            hi.append(0.0)
            lo.append(0.0)
            ex.append(_DD_ZERO_EXP)
            continue
        top = man >> (bc - 106) if bc > 106 else man << (106 - bc)
        h = math.ldexp(top >> 53, -53)
        l = math.ldexp(top & _LOW53, -106)
        hi.append(-h if sign else h)
        lo.append(-l if sign else l)
        ex.append(exp + bc)
    return np.array(hi), np.array(lo), np.array(ex, dtype=np.int64)


def dd_split_floats(x):
    """dd_split of a float64 array's finite values, without their raw
    tuples: element by element, dd_split([from_float(v) for v in x]).
    A float's mantissa has at most 53 bits, so hi is np.frexp's signed
    mantissa, lo a zero with the value's sign, and exp frexp's exponent.
    A zero of either sign is (0, 0, _DD_ZERO_EXP), since from_float
    makes both the tuple of +0."""
    hi, ex = np.frexp(x)
    zero = hi == 0.0
    hi[zero] = 0.0
    ex = ex.astype(np.int64)
    ex[zero] = _DD_ZERO_EXP
    return hi, np.copysign(0.0, hi), ex


def _split(a):
    """Dekker's split: a = hi + lo, each half 26 bits or fewer."""
    hi = _SPLITTER * a
    hi -= hi - a
    return hi, a - hi


def _two_prod(a, b):
    """Dekker's TwoProduct: p = fl(a b) and e with p + e = a b exactly,
    for floats whose halves neither overflow nor underflow. e is summed
    in place, in the order ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi)
    + a_lo b_lo."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = a_hi * b_hi
    e -= p
    e += a_hi * b_lo
    e += a_lo * b_hi
    e += a_lo * b_lo
    return p, e


def _two_sum(a, b):
    """Knuth's TwoSum: s = fl(a + b) and e with s + e = a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _extract(p, sigma, q):
    """Rump, Ogita and Oishi's ExtractVector on the columns of p, for
    sigma a power of two, or a row of them, one per column:
    q = fl(fl(sigma + p) - sigma), written into q, and p - q, exact,
    written into p. Returns q's column sums."""
    np.add(p, sigma, out=q)
    q -= sigma
    p -= q
    return q.sum(axis=0)


def _scaled_terms(uh, ul, ue, kap):
    """The terms u_k kap_ki of dd_dot as (hi, lo) arrays, each column
    scaled by 2^-(its largest term exponent), and those exponents. u is
    given as (hi, lo, exp) columns of shape (m, 1), kap as dd_dot's.
    A function of its own, so that its temporaries go when it returns."""
    kh, kl, ke = kap
    ph, pl = _two_prod(uh, kh)
    cross = uh * kl
    cross += ul * kh
    pl += cross
    ex = ue + ke
    top = ex.max(axis=0)
    ex -= top
    scale = np.maximum(ex, -1100).astype(np.int32)
    np.ldexp(ph, scale, out=ph)
    np.ldexp(pl, scale, out=pl)
    return ph, pl, top


def dd_dot(w, v, kap, prec):
    """The transform sum that TransformPlan.mp_transform computes,
        R_i = round(c round(mp_dot(weighted, kap_i, prec))),
    weighted_k = round(w_k v_k), every round to nearest at prec bits,
    evaluated in double-double with a rigorous bound on the distance to
    R_i. w holds the exact products c w_k and v the values v_k, as
    dd_split arrays of shape (m,), and kap of shape (m, rows). Returns
    arrays (hi, lo, err, exp) over the rows with hi = fl(hi + lo) and
        |R_i - (hi_i + lo_i) 2^exp_i| <= err_i 2^exp_i.

    Evaluation: u_k = w_k v_k, then each term u_k kap_ik, by Dekker's
    TwoProduct on the highs (numpy has no FMA) plus the two cross
    products, the lo * lo product dropped. The highs lie in [1/2, 1),
    so no split overflows or underflows. A row's terms are scaled by
    2^-(the row's largest term exponent), which puts every scaled high
    below 1 in magnitude. The highs are split error-free by two
    extractions (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31, 2008, ExtractVector and
    Lemma 3.3) into parts whose float sums are exact, and the rest, with
    the terms' lows, is summed in float.

    The bound, with u = 2^-53 and P_i = sum_k |c w_k v_k kap_ik| over
    the tuples' exact values:
    1. Operands: dd_split truncation is off by less than 2^-105 |x|,
       with |x~| <= |x| and |lo| < 2^-52 |hi|. The weight c w_k is an
       exact product before it is split, so c costs nothing more.
    2. Product lemma: for a = a_h + a_l, b = b_h + b_l with
       |a_l| <= ea |a_h|, |b_l| <= eb |b_h|, (p, e) = TwoProduct(a_h,
       b_h) and t = fl(e + fl(fl(a_h b_l) + fl(a_l b_h))), the dropped
       a_l b_l and the four roundings give
         |p + t - a b| <= (ea eb + 3u (ea + eb) + u^2)(1 + 4u) |a_h b_h|,
         |t| <= (u + ea + eb)(1 + 4u) |a_h b_h|.
    3. u~ = (c w)~ v~ (ea = eb = 2^-52): off by 4.25 2^-104 |w_h v_h|
       plus 2^-104 |c w v| from truncation, so
       |u~ - c w v| <= 2^-101.6 |c w v|; rescaled by a power of two,
       |u_l| <= 2^-50.6 |u_h|.
    4. A term u~ kap~ (ea = 2^-50.6, eb = 2^-52): off by
       2^-100.9 |u_h kap_h| <= 2^-100.9 (1 + 2^-50) |c w v kap|, plus
       steps 1 and 3 carried through: less than 2^-100 |c w v kap| in
       all (DD_TERM_EPS is 2^-98). Its high p satisfies
       |c w v kap| <= (1 + 2^-49) |p|, and |p| <= 1 - 2^-52, the
       rounding of (1 - 2^-53)^2.
    5. Scaling is exact, except that a part that lands subnormal or
       flushes to zero is off by at most 2^-1074 (a shift clamped at
       -1100 flushes the part either way): at most 2^-1073 < DD_TINY
       per term, in the scaled units. So with p_abs the float
       sum of the scaled highs' magnitudes,
         P_i 2^-scale <= (1 + 2^-49)(1 + m 2^-52)(p_abs + m DD_TINY).
    6. The extraction is exact. Take 2^M >= m + 2 and s1 = 2^M. For a
       scaled high p, |p| < 1, q1 = fl(fl(s1 + p) - s1) is a multiple of
       u s1 with |q1| <= 1, and r1 = fl(p - q1) = p - q1 exactly, with
       |r1| <= u s1. Every partial sum of a column's q1 is a multiple of
       2^(M-53) no larger than m < 2^M in magnitude, so a float, and
       their float sum t1 is exact in any order. The same with
       s2 = 2^(2M-53) >= 2^M |r1| splits r1 = q2 + r2: the q2 are
       multiples of 2^(2M-106) below 2^(M-53), their float sum t2 is
       exact, and |r2| <= u s2. The scaled highs sum to t1 + t2 plus
       the r2. Those and the m scaled lows, L = 2m summands, are summed
       in float to r, off by at most gamma_{L-1} times their absolute
       sum, so by (L - 1) 2^-52 lo_abs for lo_abs a float absolute sum
       of the lows plus m u s2 (Higham, Accuracy and Stability of
       Numerical Algorithms, 2nd ed., ch. 4; any order;
       (L - 1) u <= 1/4).
    7. (a, e) = TwoSum(t1, t2) is exact; b = fl(e + r) is off by at most
       2^-52 |b|, or 2^-1075 when subnormal; (hi, lo) = TwoSum(a, b) is
       exact.
    8. The reference's own distance from c sum_k w_k v_k kap_ik: each
       weighted product is rounded once (2^-prec relative); mp_dot sums
       the exact products, except that its drop and replace branches
       lose less than 2^-2prec max(|running sum|, |product|) each, at
       most m 2^(1-2 prec) sum_k |w_k v_k kap_ik| in all; its result
       and c times it are rounded once each. So R_i is within
       P_i (3 2^-prec + m 2^(1-2 prec))(1 + 2^(2-prec))
       <= P_i 2^(3-prec) (m <= 2^(prec-1)) of it: eps_ref below,
       raised to 2^-1000 where that power underflows.
    So, in units of 2^exp,
        err = (DD_TERM_EPS + eps_ref) P_i 2^-scale + m DD_TINY
              + (L - 1) 2^-52 lo_abs + 2^-52 |b| + DD_TINY,
    evaluated in float from non-negative terms and raised by 2^-40 of
    itself, which covers its own dozen roundings.
    """
    wh, wl, we = w
    vh, vl, ve = v
    m = wh.shape[0]
    p, t = _two_prod(wh, vh)
    t += wh * vl + wl * vh
    uh, shift = np.frexp(p)
    ul = np.ldexp(t, -shift)
    ue = we + ve + shift
    ph, pl, top = _scaled_terms(uh[:, None], ul[:, None], ue[:, None], kap)
    p_abs = np.abs(ph).sum(axis=0)
    lo_abs = np.abs(pl).sum(axis=0)
    lo = pl.sum(axis=0)
    M = (m + 1).bit_length()  # 2^M >= m + 2
    s2 = math.ldexp(1.0, 2 * M - 53)
    # the lows are summed: pl takes q1, then q2, and ph r1, then r2
    t1 = _extract(ph, math.ldexp(1.0, M), pl)
    t2 = _extract(ph, s2, pl)
    lo += ph.sum(axis=0)
    lo_abs += m * 2.0 ** -53 * s2
    a, e = _two_sum(t1, t2)
    b = e + lo
    hi, lo = _two_sum(a, b)
    eps = DD_TERM_EPS + math.ldexp(1.0, max(3 - prec, -1000))
    eps *= (1.0 + 2.0 ** -49) * (1.0 + m * 2.0 ** -52)
    err = eps * p_abs
    err += (2 * m - 1) * 2.0 ** -52 * lo_abs
    err += 2.0 ** -52 * np.abs(b)
    err += (eps + 1.0) * m * DD_TINY + DD_TINY
    err *= 1.0 + 2.0 ** -40
    return hi, lo, err, top


def _clear_of_midpoints(hi, lo, err):
    """True where no round-to-nearest midpoint next to hi lies within
    err of hi + lo: fl(lo + err) < up / 2 and fl(err - lo) < down / 2,
    for up and down the gaps from hi to its float neighbours. Rounding
    is monotone, so each float test implies its exact one, and an exact
    tie fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        up = np.nextafter(hi, math.inf) - hi
        down = hi - np.nextafter(hi, -math.inf)
        return (lo + err < 0.5 * up) & (err - lo < 0.5 * down)


def dd_round(hi, lo, err, exp):
    """Round dd_dot's results to float64 where that is certain: returns
    (values, ok), values[i] = hi_i 2^exp_i rounded to float64, ok[i]
    true when |hi_i| >= 2^-900, |values[i]| < 2^1023 and no 53-bit
    round-to-nearest midpoint lies within err_i 2^exp_i of
    (hi_i + lo_i) 2^exp_i. Then values[i] is to_float(R_i, rnd=
    round_nearest), zero and subnormal values included:
    1. The midpoint test certifies the 53-bit rounding: every number in
       that interval, R_i included, rounds to 53 bits as hi_i 2^exp_i
       does. hi_i is a normal float, so its float64 neighbours are its
       53-bit ones, and scaling by 2^exp_i commutes with rounding to
       53 bits, since mpmath's exponent range is unbounded. So
       round53(R_i) = hi_i 2^exp_i. The test is _clear_of_midpoints.
    2. to_float(R_i, rnd=round_nearest) rounds R_i to 53 bits and
       returns math.ldexp of that 53-bit value: below the normal range
       it rounds twice.
    3. np.ldexp(hi_i, exp_i) rounds the same real number, once, in the
       same way: IEEE scaleB, round half to even, keeping the sign on
       underflow. So it reproduces to_float's double rounding and the
       sign of a zero; it does not avoid them. exp_i is clamped to
       +-2200 before the call, which moves no result: |hi_i| is at
       most about the number of terms, so below -2200 the value is a
       zero of hi's sign either way, and above 2200 it is not
       certified."""
    _, e_hi = np.frexp(hi)
    f_exp = e_hi + exp
    ok = ((np.abs(hi) >= 2.0 ** -900) & (f_exp <= 1023)
          & _clear_of_midpoints(hi, lo, err))
    with np.errstate(over="ignore"):
        values = np.ldexp(hi, np.maximum(np.minimum(exp, 2200), -2200)
                          .astype(np.int32))
    return values, ok


def fsum_rows(X):
    """[math.fsum(row) for row in X] for a 2-D float64 array X, as a
    float64 array, bit for bit: vectorized for each row whose rounding
    it can certify, through math.fsum for the rest.

    math.fsum rounds a row's exact sum S to nearest, so where fl(S) is
    certain both routes give its bits. A row is summed in vectorized
    form when X has two rows or more, every entry of the row is finite
    and non-negative, and its largest entry top lies in
    [2^-900, 2^(1022-M)), for 2^M >= n + 2 and n entries per row. Let
    u = 2^-53 and 2^(e-1) <= top < 2^e.
    1. The entries are split error-free by two extractions (Rump, Ogita
       and Oishi, "Accurate floating-point summation part I", SIAM J.
       Sci. Comput. 31, 2008, ExtractScalar and ExtractVector, Lemmas
       3.2 and 3.3). Each entry x < 2^e = 2^-M s1, s1 = 2^(e+M), splits
       into q1 = fl(fl(s1 + x) - s1) and r1 = fl(x - q1) = x - q1, with
       q1 a multiple of u s1, |q1| <= 2^e and |r1| <= u s1. Every
       partial sum of a row's q1 is a multiple of u s1 no larger than
       n 2^e < s1 in magnitude, so a float, and their float sum t1 is
       exact in any order. The same with s2 = 2^(e+2M-53), for which
       |r1| <= 2^-M s2, splits r1 = q2 + r2 with an exact sum t2 of the
       q2 and |r2| <= u s2. s1 <= 2^1022 keeps fl(s1 + x) finite, and
       e >= -899 keeps s1 and s2 normal.
    2. So S = t1 + t2 + sum r2. The n r2 are summed in float to r, in
       any order, off by at most gamma_{n-1} sum |r2|
       <= n 2^-52 n u s2 (Higham, Accuracy and Stability of Numerical
       Algorithms, 2nd ed., ch. 4; a sum that underflows is exact).
    3. (a, c) = TwoSum(t1, t2) is exact, b = fl(c + r) is off by at
       most 2^-52 |b| (exact where it underflows), and
       (hi, lo) = TwoSum(a, b) is exact. So |S - (hi + lo)| <= err,
           err = n^2 2^-105 s2 + 2^-52 |b|,
       evaluated in float from non-negative terms and raised by 2^-40
       of itself, which covers its own roundings.
    4. 2^-900 <= top <= S < n 2^e < 2^1022, so hi, which lies within a
       few ulps of S, is a normal float. The midpoint test of dd_round,
       _clear_of_midpoints, puts S strictly inside the reals that round
       to hi. So fl(S) = hi, whatever the tie rule; an exact tie fails
       it.
    A row that fails any of these goes through math.fsum: a
    non-finite or negative entry, a largest entry below 2^-900 (a row
    of zeros too) or near overflow, a sum within err of a midpoint,
    and every row of a one-row X, where math.fsum is the faster route.
    So any error math.fsum raises is raised unchanged."""
    k, n = X.shape
    out = np.empty(k)
    ok = np.zeros(k, dtype=bool)
    if k > 1:
        M = (n + 1).bit_length()  # 2^M >= n + 2
        top = X.max(axis=1)
        ok = ((X.min(axis=1) >= 0.0) & (top >= 2.0 ** -900)
              & (top < math.ldexp(1.0, 1022 - M)))
        rows = np.flatnonzero(ok)
        if rows.size:
            # the rows as columns, a copy that the extractions overwrite
            p = X[rows].T
            _, e = np.frexp(top[rows])
            s2 = np.ldexp(1.0, e + (2 * M - 53))
            q = np.empty_like(p)
            t1 = _extract(p, np.ldexp(1.0, e + M), q)
            t2 = _extract(p, s2, q)
            a, c = _two_sum(t1, t2)
            b = c + p.sum(axis=0)
            hi, lo = _two_sum(a, b)
            err = n * n * 2.0 ** -105 * s2
            err += 2.0 ** -52 * np.abs(b)
            err *= 1.0 + 2.0 ** -40
            out[rows] = hi
            ok[rows] = _clear_of_midpoints(hi, lo, err)
    for i in np.flatnonzero(~ok):
        out[i] = math.fsum(X[i].tolist())
    return out
