"""q-Bessel series, the modified two-parameter kernel, the second-order
difference operator, the high-precision lattice table, and the certified
row sum."""

import gc
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwave import qbessel
from qwave.qbessel import (
    DegenerateParameterError,
    TruncationError,
    _kernel_values,
    eigencheck_ratios,
    fsum_rows,
    lattice_kernel,
    modified_q_bessel_bound,
    normalized_q_bessel_bound,
    q_bessel_operator,
)
from qwave.qgrid import BesselParams, build_grid
from qwave.qtransform import make_plan


def series_reference(alpha, x, q, terms=60, dps=60):
    """Brute-force partial sum at high precision, independent of the
    library's term recursion and stopping rule."""
    with mp.workdps(dps):
        Q = mp.mpf(q) ** 2
        x = mp.mpf(x)
        total = mp.mpf(0)
        for n in range(terms):
            num = (-1) ** n * (mp.mpf(q) ** (n * (n + 1))) * x ** (2 * n)
            den = mp.qp(Q ** (alpha + 1), Q, n) * mp.qp(Q, Q, n)
            total += num / den
        return float(total)


def kernel_distance(value, nu, beta, x, q, dps=2 * qbessel.KERNEL_DPS):
    """|value - x^{-2 beta} j_nu(q^{-beta} x; q^2)| at dps digits, from
    mpmath's qhyper([0], [Q^{nu+1}], Q, Q y^2), y = q^{-beta} x, Q = q^2:
    the series as a 1phi1, summed by mpmath, which adds the digits that
    its cancellation costs. q, beta and x enter as mpfs."""
    with mp.workdps(dps):
        q = mp.mpf(q)
        Q = q * q
        y2 = (q ** -mp.mpf(beta) * x) ** 2
        ref = (mp.qhyper([0], [Q ** (mp.mpf(nu) + 1)], Q, Q * y2)
               * mp.mpf(x) ** (-2 * mp.mpf(beta)))
        return abs(mp.mpf(value) - ref)


class TestSeries:
    def test_value_at_zero_is_one(self):
        for alpha in (0.0, 0.5, 1.25):
            val, err = normalized_q_bessel_bound(alpha, 0.0, 0.5)
            assert val == 1.0
            assert err == 0.0

    def test_matches_high_precision_sum(self):
        got = normalized_q_bessel_bound(0.0, 0.5, 0.5)[0]
        ref = series_reference(0.0, 0.5, 0.5)
        assert abs(got - ref) < 1e-12
        # regression pin for the same point
        assert math.isclose(got, 0.8908562424189629, rel_tol=1e-15)

    @pytest.mark.parametrize("alpha,x,q", [
        (0.0, 0.1, 0.3), (0.5, 1.0, 0.5), (1.0, 2.0, 0.5),
        (0.25, 3.0, 0.7), (0.0, 5.0, 0.5), (1.5, 0.7, 0.9),
    ])
    def test_error_bound_is_honest(self, alpha, x, q):
        val, err = normalized_q_bessel_bound(alpha, x, q)
        ref = series_reference(alpha, x, q, terms=120, dps=80)
        assert abs(val - ref) <= err

    def test_bound_grows_in_cancellation_regime(self):
        # at large x the terms alternate with huge magnitudes before
        # collapsing; the bound on the float follows the value, 5.2e4 here
        _, small = normalized_q_bessel_bound(0.0, 0.5, 0.5)
        _, big = normalized_q_bessel_bound(0.0, 30.0, 0.5)
        assert big > 1e3 * small

    def test_degenerate_order_rejected(self):
        # order -1 makes (q^{2a+2}; q^2)_n vanish at n = 1
        with pytest.raises(DegenerateParameterError):
            normalized_q_bessel_bound(-1.0, 0.5, 0.5)[0]

    def test_q_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="q must lie in"):
            normalized_q_bessel_bound(0.0, 0.5, 1.5)[0]

    def test_tight_term_cap_raises(self):
        # near q = 1 the series needs more than its 800 terms
        with pytest.raises(TruncationError):
            normalized_q_bessel_bound(0.0, 1.0, 0.999)[0]


class TestModifiedKernel:
    def test_reduces_to_plain_series_at_beta_zero(self):
        v = BesselParams(0.7, 0.0)
        assert (modified_q_bessel_bound(v, 0.3, 0.5)[0]
                == normalized_q_bessel_bound(0.7, 0.3, 0.5)[0])

    def test_prefactor_vanishes_at_one(self):
        # x = 1 leaves only the argument shift q^{-beta}, which the kernel
        # forms in mp, not as the float q ** -0.25
        v = BesselParams(0.5, 0.25)
        q = 0.5
        val, err = modified_q_bessel_bound(v, 1.0, q)
        assert kernel_distance(val, v.nu, v.beta, 1.0, q) <= err

    def test_composition_identity(self):
        # jtilde(x) = x^{-2 beta} j_nu(q^{-beta} x) rebuilt by hand
        v = BesselParams(0.5, 0.25)
        q = 0.5
        x = q ** 2
        by_hand = x ** (-2.0 * v.beta) * normalized_q_bessel_bound(
            v.nu, q ** (-v.beta) * x, q)[0]
        got = modified_q_bessel_bound(v, x, q)[0]
        assert got == by_hand
        assert math.isclose(got, 1.9288615822629438, rel_tol=1e-15)

    def test_nonpositive_argument_rejected(self):
        v = BesselParams(0.5, 0.25)
        with pytest.raises(ValueError, match="x > 0"):
            modified_q_bessel_bound(v, 0.0, 0.5)[0]

    @pytest.mark.parametrize("alpha,beta,x,error,message", [
        (0.0, 2000.0, 1.0, TruncationError,
         r"series did not converge within 800 terms \(x=1\.0\)"),
        (3000.0, -2000.0, 4.0, ValueError,
         r"the kernel value 1\.7377e\+2408 at x = 4\.0 leaves float64"),
        (1.0, 1.0, 1e-300, ValueError,
         r"the kernel value 1\.0e\+600 at x = 1e-300 leaves float64"),
        (0.0, 600.0, 1.0, DegenerateParameterError,
         r"q-Pochhammer factor ~0 at n=600 for order -600\.0"),
    ], ids=("q-power", "x-power", "tiny-x", "series-power"))
    def test_power_overflow_named(self, alpha, beta, x, error, message):
        # each float power raised OverflowError (34, 'Numerical result
        # out of range'), which no caller caught; in mp no power
        # overflows, and each case fails for what it is: the series at
        # q^-2000 does not converge, the value leaves float64, or the
        # order -600 is degenerate
        with pytest.raises(error, match=f"^{message}$"):
            modified_q_bessel_bound(BesselParams(alpha, beta), x, 0.5)


class TestRoundedKernel:
    @pytest.mark.parametrize("q,alpha,beta", [
        (0.3, 0.0, 0.0), (0.5, 0.0, 0.0), (0.9, 0.0, 0.0),
        (0.5, 0.5, 0.25)])
    def test_default_grid_rows_are_certified(self, q, alpha, beta):
        v = BesselParams(alpha, beta)
        rows = [(x, *modified_q_bessel_bound(v, x, q))
                for x in build_grid(q, -20, 40).points]
        # the float64 series left 17, 16 and 10 rows of the first three
        # grids with err_bound >= |value|: no correct digit
        assert [r for r in rows if not r[2] < abs(r[1])] == []
        assert [r for r in rows if not r[2] < 2.0 ** -50 * abs(r[1])] == []
        assert [r for r in rows
                if not kernel_distance(r[1], v.nu, v.beta, r[0], q) <= r[2]
                ] == []

    def test_deep_cancellation_row(self):
        # 241 of the sum's digits cancel at x = 2^20; the float64 series
        # printed 3.18e98 with bound 1.8e101
        val, err = normalized_q_bessel_bound(0.0, 2.0 ** 20, 0.5)
        assert "%.17g" % val == "5.3638200504768915e-127"
        assert err < 2.0 ** -52 * val
        assert kernel_distance(val, 0.0, 0.0, 2.0 ** 20, 0.5) <= err


def stencil_rows(f, grid):
    """A context at KERNEL_DPS and q_bessel_operator's rows (f(x/q),
    f(x), f(qx), x^2) at the interior points x = q^n of the grid, for f
    mapping (that context's q, n) to f(q^n) in it; x^2 = q^(2n)."""
    ctx = qbessel.mp_context(qbessel.KERNEL_DPS)
    qmp = ctx.mpf(grid.q)
    return ctx, [(f(qmp, n - 1), f(qmp, n), f(qmp, n + 1), qmp ** (2 * n))
                 for n in range(grid.n_low + 1, grid.n_high)]


class TestDifferenceOperator:
    def test_constant_closed_form(self):
        # Delta c = c (1 - q^{2a})(1 - q^{2b}) / x^2
        q, v = 0.5, BesselParams(0.5, 0.25)
        g = build_grid(q, -4, 8)
        ctx, rows = stencil_rows(lambda qmp, n: 3 * qmp ** 0, g)
        out = q_bessel_operator(ctx, q, v, rows)
        qmp = ctx.mpf(q)
        ref = [3 * (1 - qmp ** (2 * ctx.mpf(v.alpha)))
               * (1 - qmp ** (2 * ctx.mpf(v.beta))) / x2
               for *_, x2 in rows]
        assert max(abs(a / b - 1) for a, b in zip(out, ref)) < 2.0 ** -700

    def test_square_closed_form(self):
        # Delta x^2 = q^{-2} - q^{2a} - q^{2b} + q^{2a+2b+2}, a constant
        q, v = 0.5, BesselParams(1.0, -0.25)
        g = build_grid(q, -4, 8)
        ctx, rows = stencil_rows(lambda qmp, n: qmp ** (2 * n), g)
        out = q_bessel_operator(ctx, q, v, rows)
        qmp = ctx.mpf(q)
        a, b = 2 * ctx.mpf(v.alpha), 2 * ctx.mpf(v.beta)
        ref = qmp ** -2 - qmp ** a - qmp ** b + qmp ** (a + b + 2)
        assert max(abs(val / ref - 1) for val in out) < 2.0 ** -700

    def test_zero_maps_to_zero(self):
        g = build_grid(0.5, -4, 8)
        ctx, rows = stencil_rows(lambda qmp, n: 0 * qmp, g)
        out = q_bessel_operator(ctx, 0.5, BesselParams(0.0, 0.0), rows)
        assert len(out) == 11 and all(val == 0 for val in out)

    def test_output_drops_both_ends(self):
        # one ratio per interior point: n = -3 .. 7
        g = build_grid(0.5, -4, 8)
        assert [x for x, _ in eigencheck_ratios(BesselParams(0.0, 0.0), 1.0,
                                                g)] == g.points[1:-1].tolist()

    def test_too_few_points_rejected(self):
        g = build_grid(0.5, 0, 1)
        with pytest.raises(ValueError, match="three grid points"):
            eigencheck_ratios(BesselParams(0.0, 0.0), 1.0, g)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normal_x_squared_kept(self):
        # float64's x^2 = q^(2n) is subnormal from n = 154 and zero from
        # n = 162 at q = 0.1, which the float stencil refused; in mp
        # every x^2 is kept, and the stencil of 1 is (1 - A + B) / x^2
        q, v = 0.1, BesselParams(0.5, 0.25)
        g = build_grid(q, 147, 170)
        ctx, rows = stencil_rows(lambda qmp, n: qmp ** 0, g)
        out = q_bessel_operator(ctx, q, v, rows)
        qmp = ctx.mpf(q)
        num = (1 - qmp ** (2 * ctx.mpf(v.alpha))
               - qmp ** (2 * ctx.mpf(v.beta)) + qmp ** ctx.mpf(1.5))
        assert max(abs(val * x2 / num - 1)
                   for val, (*_, x2) in zip(out, rows)) < 2.0 ** -700

    def test_eigenfunction_property(self):
        # the modified kernel at argument lam*x is an eigenfunction with
        # eigenvalue -lam^2: every certified ratio is exactly -lam^2,
        # down to x = 2^-8, where the float stencil needed rtol=1e-9
        g = build_grid(0.5, -2, 8)
        for lam in (1.0, 0.5, 2.0):
            assert [r for _, r in eigencheck_ratios(
                BesselParams(0.5, 0.25), lam, g)] == [-lam * lam] * 9


class TestLatticeTable:
    def test_matches_series_at_nonnegative_indices(self):
        # the rounded series against the table's entries at x = q^s
        nu, q = 0.25, 0.5
        tab = lattice_kernel(nu, q, 0, 12)
        for s in range(0, 13):
            ref = normalized_q_bessel_bound(nu, q ** s, q)[0]
            assert math.isclose(tab[s], ref, rel_tol=1e-12)

    def test_matches_high_precision_series_below_zero(self):
        # negative indices sit deep in the cancellation regime; the table
        # comes from backward recurrence, the oracle from a 300-digit sum
        nu, q = 0.0, 0.5
        tab = lattice_kernel(nu, q, -16, 0)
        with mp.workdps(300):
            Q = mp.mpf(q) ** 2
            # (Q^(nu+1); Q)_n (Q; Q)_n for n < 200, as running products
            dens = [mp.mpf(1)]
            for n in range(199):
                dens.append(dens[-1] * (1 - Q ** (nu + 1) * Q ** n)
                            * (1 - Q * Q ** n))
            for s in range(-16, 1):
                x = mp.mpf(q) ** s
                total = mp.mpf(0)
                for n in range(200):
                    num = (-1) ** n * mp.mpf(q) ** (n * (n + 1)) * x ** (2 * n)
                    total += num / dens[n]
                ref = float(total)
                assert math.isclose(tab[s], ref, rel_tol=1e-10), s

    def test_table_extension_is_consistent(self):
        # growing the requested range reseeds the backward recurrence;
        # entries must still agree after rounding to float64, which is
        # what every downstream kernel row consumes
        nu, q = 0.25, 0.3
        small = {s: float(x) for s, x in lattice_kernel(nu, q, -4, 6).items()}
        large = lattice_kernel(nu, q, -10, 12)
        for s, val in small.items():
            assert float(large[s]) == val


def per_term_kernel_values(nu, q, s_min, s_max, dps=240, buffer=8):
    """The kernel table as first written: every series term recomputes
    Q^n and Q^{nu+n} with mpmath powers, and the recurrence computes
    q^{-2k} per step. The library hoists all of them; rounded to float64
    the two tables must not differ."""
    with mp.workdps(dps):
        qq = mp.mpf(q)
        Q = qq * qq
        numu = mp.mpf(nu)
        out = {}

        def series(s):
            x2 = qq ** (2 * mp.mpf(s))
            term = mp.mpf(1)
            tot = mp.mpf(1)
            n = 0
            while True:
                n += 1
                term *= -(Q ** n) * x2 / ((1 - Q ** (numu + n)) * (1 - Q ** n))
                tot += term
                if abs(term) < mp.mpf(10) ** (-dps - 5) * abs(tot):
                    return tot

        for s in range(max(s_min, 0), s_max + 1):
            out[s] = series(s)
        if s_min < 0:
            kmax = -s_min
            q2nu = qq ** (2 * numu)
            y_hi = mp.mpf(0)
            y = mp.mpf(1)
            vals = {}
            for k in range(kmax + buffer, -1, -1):
                vals[k] = y
                y_lo = ((1 + q2nu - qq ** (-2 * k)) * y - y_hi) / q2nu
                y_hi = y
                y = y_lo
            scale = out[0] / vals[0]
            for k in range(1, kmax + 1):
                out[-k] = vals[k] * scale
    return {s: float(val) for s, val in out.items()}


def mpf_kernel_values(nu, q, s_min, s_max):
    """The kernel table with its series and x^2 = Q^s run on mpf objects
    (term *= r_n x^2, tot += term, |term| < tiny |tot|), and otherwise as
    the library builds it: ratios from running products, the same
    recurrence. The library runs the series on raw tuples; every entry
    must be the same tuple."""
    ctx = qbessel.mp_context(qbessel.KERNEL_DPS)
    Q = ctx.mpf(q) * ctx.mpf(q)
    Qnu = Q ** ctx.mpf(nu)
    tiny = ctx.mpf(10) ** (-qbessel.KERNEL_DPS - 5)
    ratios = [None]
    Qk = ctx.mpf(1)
    out = {}

    def series(x2):
        nonlocal Qk
        term = tot = ctx.mpf(1)
        n = 0
        while True:
            n += 1
            if len(ratios) <= n:
                Qk *= Q
                ratios.append(-Qk / ((1 - Qnu * Qk) * (1 - Qk)))
            term *= ratios[n] * x2
            tot += term
            if abs(term) < tiny * abs(tot):
                return tot

    x2 = ctx.mpf(1)
    for s in range(s_max + 1):
        out[s] = series(x2)
        x2 *= Q
    kmax = -s_min
    y_hi, y = ctx.mpf(0), ctx.mpf(1)
    q_m2k = Q ** -(kmax + qbessel.RECURRENCE_BUFFER)
    vals = {}
    for k in range(kmax + qbessel.RECURRENCE_BUFFER, -1, -1):
        vals[k] = y
        y_hi, y = y, ((1 + Qnu - q_m2k) * y - y_hi) / Qnu
        q_m2k *= Q
    for k in range(1, kmax + 1):
        out[-k] = vals[k] * (out[0] / vals[0])
    return out


# (nu, q) of the acceptance lattice's three orders, one q each
_TABLE_CELLS = [(0.0, 0.3), (0.25, 0.5), (1.25, 0.7)]


class TestLatticeTableBitwise:
    @pytest.mark.parametrize("nu,q", _TABLE_CELLS)
    def test_series_entries(self, nu, q):
        tab = lattice_kernel(nu, q, 0, 24)
        want = per_term_kernel_values(nu, q, 0, 24)
        assert {s: float(tab[s]) for s in range(0, 25)} == want

    @pytest.mark.parametrize("nu,q", _TABLE_CELLS)
    def test_recurrence_entries(self, nu, q):
        # the negative half depends on where the recurrence is seeded, so
        # both sides build the same range from scratch
        got = _kernel_values(nu, q, -40, 4)
        want = per_term_kernel_values(nu, q, -40, 4)
        assert {s: float(val) for s, val in got.items()} == want

    @pytest.mark.parametrize("nu,q", [(0.25, 0.1), (1.25, 0.3)])
    def test_raw_tuple_series_matches_mpf_objects(self, nu, q):
        # [0, 260] reaches from series of many terms down to the depth
        # where the first term already stops it
        got = _kernel_values(nu, q, -40, 260)
        want = mpf_kernel_values(nu, q, -40, 260)
        assert {s: v._mpf_ for s, v in got.items()} == \
            {s: v._mpf_ for s, v in want.items()}

    def test_degenerate_order_rejected(self):
        # nu = -3: the factor 1 - Q^{nu+3} vanishes in the third term
        with pytest.raises(DegenerateParameterError):
            _kernel_values(-3.0, 0.5, -4, 4)


@pytest.fixture()
def fresh_tables(monkeypatch):
    """An empty table cache, and every _kernel_values call recorded as
    (s_min, s_max, keys of the entries it returned)."""
    calls = []
    build = qbessel._kernel_values

    def recording(nu, q, s_min, s_max):
        out = build(nu, q, s_min, s_max)
        calls.append((s_min, s_max, sorted(out)))
        return out

    monkeypatch.setattr(qbessel, "_tables", {})
    monkeypatch.setattr(qbessel, "_kernel_values", recording)
    return calls


def assert_one_shot(nu, q, tab):
    # growth must leave every entry, s < 0 included, exactly where a
    # single build over the final range puts it
    want = _kernel_values(nu, q, min(tab), max(tab))
    assert tab.keys() == want.keys()
    assert all(tab[s] == want[s] for s in want)


class TestLatticeTableExtension:
    @pytest.mark.parametrize("nu,q", _TABLE_CELLS)
    def test_growth_both_ways(self, fresh_tables, nu, q):
        for lo, hi in ((-40, 80), (-80, 160), (-160, 320)):
            tab = lattice_kernel(nu, q, lo, hi)
            assert (min(tab), max(tab)) == (lo, hi)
            assert_one_shot(nu, q, tab)

    # at (0, 0.9) a series entry evaluated at x^2 = Q^14 as a fresh power
    # differs from the one at the running product Q^13 * Q
    @pytest.mark.parametrize("nu,q", _TABLE_CELLS + [(0.0, 0.9)])
    def test_growth_above_only(self, fresh_tables, nu, q):
        for hi in (2, 6, 13, 20, 90):
            tab = lattice_kernel(nu, q, -30, hi)
            assert_one_shot(nu, q, tab)

    def test_growth_below_only(self, fresh_tables):
        nu, q = 0.25, 0.5
        lattice_kernel(nu, q, -30, 20)
        tab = lattice_kernel(nu, q, -90, 20)
        assert_one_shot(nu, q, tab)

    def test_first_request_above_zero(self, fresh_tables):
        # a first build spans s = 0, so the series' running product
        # starts at Q^0, and so does every rebuild over a union
        nu, q = 1.25, 0.7
        tab = lattice_kernel(nu, q, 5, 30)
        assert (min(tab), max(tab)) == (0, 30)
        assert_one_shot(nu, q, tab)
        tab = lattice_kernel(nu, q, -20, 50)
        assert_one_shot(nu, q, tab)
        tab = lattice_kernel(nu, q, 10, 70)
        assert_one_shot(nu, q, tab)

    def test_one_build_per_wider_request(self, fresh_tables):
        # a request past the stored range rebuilds it with one call over
        # the union of the two ranges; a request inside it builds nothing
        nu, q = 0.0, 0.3
        for lo, hi in ((-40, 80), (-20, 40), (-80, 160), (0, 200),
                       (-160, 320), (-100, 300), (-170, 10)):
            lattice_kernel(nu, q, lo, hi)
        builds = [(-40, 80), (-80, 160), (-80, 200), (-160, 320), (-170, 320)]
        assert fresh_tables == [(lo, hi, list(range(lo, hi + 1)))
                                for lo, hi in builds]

    def test_extension_returns_a_new_table(self, fresh_tables):
        # a rebuild never changes a table handed out before, so a
        # caller reading one needs no lock while another rebuilds it
        nu, q = 0.25, 0.5
        small = lattice_kernel(nu, q, -10, 20)
        snapshot = dict(small)
        assert lattice_kernel(nu, q, -5, 15) is small
        large = lattice_kernel(nu, q, -20, 20)
        assert large is not small
        assert small == snapshot
        assert lattice_kernel(nu, q, -20, 10) is large

    def test_grown_from_threads(self, fresh_tables):
        # the cache has no lock: threads growing one table at once may
        # each build, but every table returned covers its request and
        # equals a one-shot build over its own range
        nu, q = 0.25, 0.5
        requests = [(-8 * k, 16 * k) for k in range(1, 6)] * 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                qbessel._tables.clear()
                with ThreadPoolExecutor(2 * (os.cpu_count() or 1) + 1) as pool:
                    tabs = list(pool.map(
                        lambda r: lattice_kernel(nu, q, *r), requests))
                for (lo, hi), tab in zip(requests, tabs):
                    assert min(tab) <= lo and max(tab) >= hi
                    assert_one_shot(nu, q, tab)
        finally:
            sys.setswitchinterval(interval)


class TestTablesLiveWithTheirPlans:
    """qbessel._tables refers to its tables weakly, and each plan holds
    its own: a table stays cached while a plan uses it and no longer."""

    def test_key_leaves_with_its_last_plan(self, monkeypatch):
        built = []
        build = qbessel._kernel_values

        def recording(*args):
            out = build(*args)
            built.append(len(out))
            return out

        monkeypatch.setattr(qbessel, "_kernel_values", recording)
        v, q = BesselParams(0.375, 0.125), 0.4375
        key = (v.nu, q)
        assert key not in qbessel._tables
        # the second plan's index sums lie inside the first one's table
        plans = [make_plan(build_grid(q, -12, 24), v),
                 make_plan(build_grid(q, -10, 20), v)]
        assert key in qbessel._tables
        assert built == [73]
        [plan.kappa_row(dps) for dps in (40, 90) for plan in plans]
        assert built == [73]
        del plans[0]
        gc.collect()
        assert key in qbessel._tables
        del plans
        gc.collect()
        assert key not in qbessel._tables

    def test_rows_read_the_plans_own_table(self, monkeypatch):
        # a wider plan on the same (nu, q) replaces the cached table; once
        # it is gone, the narrow plan's rows still come from its own table
        built = []
        build = qbessel._kernel_values

        def recording(*args):
            out = build(*args)
            built.append(len(out))
            return out

        monkeypatch.setattr(qbessel, "_kernel_values", recording)
        v, q = BesselParams(0.375, 0.125), 0.5625
        narrow = make_plan(build_grid(q, -10, 20), v)
        narrow_row = narrow.kappa_row(40)
        wide = make_plan(build_grid(q, -12, 24), v)
        assert built == [61, 73]
        del wide
        gc.collect()
        assert (v.nu, q) not in qbessel._tables
        narrow.kappa_row(70)
        assert built == [61, 73]
        fresh = make_plan(build_grid(q, -10, 20), v)
        assert narrow.kappa_row(70) == fresh.kappa_row(70)
        assert narrow_row == fresh.kappa_row(40)



def fsum_bits(X):
    """The bits of [math.fsum(row) for row in X], the reference that
    fsum_rows must equal."""
    return np.array([math.fsum(row) for row in X.tolist()]).tobytes()


@st.composite
def row_blocks(draw):
    """Blocks of one to five rows of non-negative entries: any float up
    to 2^1000, zeros and subnormals, and multiples of powers of two from
    2^-1074 to 2^999, which make sums that tie halfway between two
    floats."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 24))
    entry = st.one_of(
        st.floats(0.0, 2.0 ** 1000),
        st.sampled_from([0.0, 2.0 ** -1074, 3 * 2.0 ** -1074,
                         2.0 ** -1022 - 2.0 ** -1074]),
        st.builds(math.ldexp, st.sampled_from([1.0, 3.0, 0.75]),
                  st.integers(-1074, 999)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return np.array(rows, dtype=float)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(row_blocks())
def test_fsum_rows_equals_fsum(X):
    assert fsum_rows(X).tobytes() == fsum_bits(X)


class _CountingMath:
    """The math module, with its fsum calls counted."""

    def __init__(self):
        self.fsum_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, values):
        self.fsum_calls += 1
        return math.fsum(values)


class TestFsumRows:
    """The two routes of fsum_rows: a row it certifies skips math.fsum,
    and any other row, a tie or one it declines up front, goes through
    it, with fsum's own result or error."""

    @pytest.fixture
    def counted(self, monkeypatch):
        counting = _CountingMath()
        monkeypatch.setattr(qbessel, "math", counting)
        return counting

    def test_squares_skip_fsum(self, counted):
        # rows like plane.integral's terms: squares times weights over a
        # wide exponent range
        rng = np.random.default_rng(0)
        X = rng.standard_normal((64, 481)) ** 2 * np.exp2(
            rng.integers(-300, 300, 481).astype(float))
        assert fsum_rows(X).tobytes() == fsum_bits(X)
        assert counted.fsum_calls == 0

    @pytest.mark.parametrize("row", [
        [1.0, 2.0 ** -53],  # a tie, rounded down to the even 1
        [1.0 + 2.0 ** -52, 2.0 ** -53],  # a tie, rounded up to even
        [2.0 ** 52, 0.5, 0.0],
        [2.0 ** 52 + 1.0, 0.25, 0.25],
    ], ids=("down", "up", "three-down", "four-up"))
    def test_ties_go_through_fsum(self, counted, row):
        X = np.zeros((2, len(row)))
        X[0] = row
        X[1, 0] = 1.0
        assert fsum_rows(X).tobytes() == fsum_bits(X)
        assert counted.fsum_calls == 1

    def test_sums_near_a_midpoint(self):
        # 1 and parts that sum to 2^-53, the midpoint between 1 and the
        # next float, up to the rounding of the last part: a row whose
        # rounding the bound does not settle must not be certified
        rng = np.random.default_rng(0)
        parts = rng.random((200, 62)) * np.exp2(
            -53.0 - rng.integers(5, 40, (200, 62)))
        X = np.array([[1.0, *p, float(Fraction(2) ** -53
                                      - sum(map(Fraction, p)))]
                      for p in parts.tolist()])
        X = np.concatenate([X, X[:, ::-1]])
        assert fsum_rows(X).tobytes() == fsum_bits(X)

    @pytest.mark.parametrize("row", [
        [1.0, math.inf], [math.nan, 1.0], [1.0, -0.5],
        [0.0, 0.0], [2.0 ** -1000, 2.0 ** -1074], [2.0 ** 1020, 1.0]],
        ids=("inf", "nan", "negative", "zero", "tiny", "near-overflow"))
    def test_declined_rows_go_through_fsum(self, counted, row):
        X = np.array([row, [1.0, 2.0]])
        assert fsum_rows(X).tobytes() == fsum_bits(X)
        assert counted.fsum_calls == 1

    def test_one_row_block_goes_through_fsum(self, counted):
        X = np.array([[1.0, 2.0, 3.0]])
        assert fsum_rows(X).tobytes() == fsum_bits(X)
        assert counted.fsum_calls == 1

    @pytest.mark.parametrize("row,error", [
        ([2.0 ** 1023, 2.0 ** 1023], OverflowError),
        ([math.inf, -math.inf], ValueError)], ids=("overflow", "inf-inf"))
    def test_fsum_errors_are_raised_unchanged(self, row, error):
        with pytest.raises(error) as want:
            math.fsum(row)
        with pytest.raises(error) as got:
            fsum_rows(np.array([[1.0, 1.0], row]))
        assert str(got.value) == str(want.value)
