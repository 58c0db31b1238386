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

import math
import os
import threading

import numpy as np
from mpmath import mp

from qwave.qgrid import GridFunction, QGrid

EPS = 2.0 ** -52
# A q-Pochhammer factor 1 - Q^{order+n} below this counts as vanished.
DEGENERATE_TOL = 1e-14


class DegenerateParameterError(ValueError):
    """A denominator q-Pochhammer factor vanished (order too negative)."""


class TruncationError(RuntimeError):
    """Series failed to meet rel_tol within max_terms."""


class SeriesTolerance:
    __slots__ = ("rel_tol", "max_terms")

    def __init__(self, rel_tol=1e-15, max_terms=200):
        if not 0.0 < rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0,1), got {rel_tol}")
        if max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {max_terms}")
        self.rel_tol = float(rel_tol)
        self.max_terms = int(max_terms)


_DEFAULT_TOL = SeriesTolerance()


def _series_sum(order, x, q, tol):
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
    for n in range(1, tol.max_terms + 1):
        denom_a = 1.0 - Q ** (order + n)
        denom_b = 1.0 - Q ** n
        if abs(denom_a) < DEGENERATE_TOL or abs(denom_b) < DEGENERATE_TOL:
            raise DegenerateParameterError(
                f"q-Pochhammer factor ~0 at n={n} for order {order}")
        term *= -(Q ** n) * x2 / (denom_a * denom_b)
        total += term
        peak = max(peak, abs(term), abs(total))
        if abs(term) < tol.rel_tol * abs(total):
            denom_a = 1.0 - Q ** (order + n + 1)
            denom_b = 1.0 - Q ** (n + 1)
            omitted = abs(term * (Q ** (n + 1)) * x2 / (denom_a * denom_b))
            return total, omitted + EPS * peak * (5 * n + 5)
    raise TruncationError(
        f"series did not converge within {tol.max_terms} terms (x={x})")


def normalized_q_bessel(alpha, x, q, tol=None):
    """Normalized q-Bessel series j_alpha(x, q^2); equals 1 at x = 0."""
    value, _ = normalized_q_bessel_bound(alpha, x, q, tol)
    return value


def normalized_q_bessel_bound(alpha, x, q, tol=None):
    """Same as normalized_q_bessel but returns (value, err_bound)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    return _series_sum(float(alpha), float(x), float(q), tol or _DEFAULT_TOL)


def modified_q_bessel(v, x, q, tol=None):
    """Two-parameter kernel x^{-2 beta} j_{alpha-beta}(q^{-beta} x, q^2).

    x must be positive: the prefactor is singular at 0 when beta > 0.
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"modified kernel needs x > 0, got {x}")
    return x ** (-2.0 * v.beta) * normalized_q_bessel(v.nu, q ** (-v.beta) * x, q, tol)


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

# mpmath's mp context is a process-global; every block that changes its
# precision must hold this. The library itself calls in from one thread
# (parallel work runs in processes), but callers may call in from
# several. Reentrant so nested holders (a spectrum evaluation extending
# the kernel table) don't deadlock. A fork waits for the lock, so a
# forked worker never starts inside another thread's precision block or
# with the lock held by a thread it does not have.
MP_LOCK = threading.RLock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=MP_LOCK.acquire,
                        after_in_parent=MP_LOCK.release,
                        after_in_child=MP_LOCK.release)
_tables = {}


def _kernel_values(nu, q, s_min, s_max, dps=240, buffer=8, s_first=None,
                   j0=None):
    """j_nu(q^s; q^2) for integer s in [s_min, s_max] as an mpf dict.

    s >= 0 comes straight from the series. s < 0 uses the three-term
    recurrence downward in depth (the target solution dominates in that
    direction, so backward recursion is stable), seeded past the range
    and normalized at s = 0 against the series value.

    No mpmath power runs inside a loop. The series ratios
    r_k = -Q^k / ((1 - Q^{nu+k})(1 - Q^k)), Q = q^2, do not depend on s:
    they are built once, from running products of Q, and every s reuses
    them (term_k = term_{k-1} r_k x^2). The arguments x^2 = Q^s and the
    recurrence's q^{-2k} are running products too.

    lattice_kernel extends a table with s_first, the first series entry
    it lacks, and j0, its value at s = 0. The series then runs over
    [s_first, s_max] from x^2 = Q^s_first replayed as the running product
    from Q^0, which is the product a call over s_min <= 0 reaches there,
    and the recurrence (run when s_min < 0) is normalized against j0.
    Only the entries computed are returned.
    """
    with MP_LOCK, mp.workdps(dps):
        qq = mp.mpf(q)
        Q = qq * qq
        Qnu = Q ** mp.mpf(nu)
        tiny = mp.mpf(10) ** (-dps - 5)
        ratios = [None]  # ratios[k] is r_k, built on first use
        Qk = mp.mpf(1)
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
            term = mp.mpf(1)
            tot = mp.mpf(1)
            n = 0
            while True:
                n += 1
                term *= ratio(n) * x2
                tot += term
                if abs(term) < tiny * abs(tot):
                    return tot
                if n > 800:
                    raise TruncationError(f"high-precision series stalled at s={s}")

        if s_first is None:
            s_first = max(s_min, 0)
            x2 = Q ** s_first
        else:
            x2 = mp.mpf(1)
            for _ in range(s_first):
                x2 *= Q
        for s in range(s_first, s_max + 1):
            out[s] = series(s, x2)
            x2 *= Q
        if s_min < 0:
            kmax = -s_min
            y_hi = mp.mpf(0)
            y = mp.mpf(1)
            q_m2k = Q ** -(kmax + buffer)
            vals = {}
            for k in range(kmax + buffer, -1, -1):
                vals[k] = y
                y_lo = ((1 + Qnu - q_m2k) * y - y_hi) / Qnu
                y_hi = y
                y = y_lo
                q_m2k *= Q
            scale = (out[0] if j0 is None else j0) / vals[0]
            for k in range(1, kmax + 1):
                out[-k] = vals[k] * scale
    return out


def lattice_kernel(nu, q, s_min, s_max):
    """Cached j_nu(q^s; q^2) table over [s_min, s_max] (mpf values).

    The first request for a (nu, q) builds the table over
    [min(s_min, 0), max(s_max, 0)]. A request past its range extends it:
    entries at s >= 0 are evaluated only where new, from the series'
    running product replayed from Q^0, so each is evaluated once per
    process and stays bit-identical across calls. Entries at s < 0 are
    recomputed when s_min deepens, because the backward recurrence is
    seeded at -s_min + 8 and a deeper seed changes them in their last
    digits: on the acceptance lattice, growing [-40, 80] to [-160, 320]
    changes 31 to 40 of the 40 entries at s in [-40, -1], by at most
    3e-239 relative, and none of their float64 values. Either way every entry
    equals what a one-shot _kernel_values over the final range gives.

    An extension stores a new dict and never changes one returned
    before, so a caller holding a table (or anything built from it) can
    tell by identity whether it is still current.
    """
    key = (float(nu), float(q))
    with MP_LOCK:
        tab = _tables.get(key)
        if tab is None:
            tab = _kernel_values(nu, q, min(s_min, 0), max(s_max, 0))
        elif min(tab) > s_min or max(tab) < s_max:
            lo, hi = min(tab), max(tab)
            # new series entries above hi; the recurrence only when s_min
            # deepens (a call with s_min = 0 runs none)
            tab = {**tab, **_kernel_values(
                nu, q, s_min if s_min < lo else 0, max(s_max, hi),
                s_first=hi + 1, j0=tab[0])}
        _tables[key] = tab
        return tab
