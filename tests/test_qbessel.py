"""q-Bessel series, the modified two-parameter kernel, the second-order
difference operator, and the high-precision lattice table."""

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest

from qwave import qbessel
from qwave.qbessel import (
    DegenerateParameterError,
    TruncationError,
    _kernel_values,
    generalized_q_bessel_operator,
    lattice_kernel,
    modified_q_bessel,
    normalized_q_bessel,
    normalized_q_bessel_bound,
)
from qwave.qgrid import BesselParams, GridFunction, build_grid


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


class TestSeries:
    def test_value_at_zero_is_one(self):
        for alpha in (0.0, 0.5, 1.25):
            val, err = normalized_q_bessel_bound(alpha, 0.0, 0.5)
            assert val == 1.0
            assert err == 0.0

    def test_matches_high_precision_sum(self):
        got = normalized_q_bessel(0.0, 0.5, 0.5)
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
        # collapsing; the round-off floor must reflect that peak
        _, small = normalized_q_bessel_bound(0.0, 0.5, 0.5)
        _, big = normalized_q_bessel_bound(0.0, 30.0, 0.5)
        assert big > 1e3 * small

    def test_degenerate_order_rejected(self):
        # order -1 makes (q^{2a+2}; q^2)_n vanish at n = 1
        with pytest.raises(DegenerateParameterError):
            normalized_q_bessel(-1.0, 0.5, 0.5)

    def test_q_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="q must lie in"):
            normalized_q_bessel(0.0, 0.5, 1.5)

    def test_tight_term_cap_raises(self):
        # near q = 1 the series needs more than SERIES_MAX_TERMS terms
        with pytest.raises(TruncationError):
            normalized_q_bessel(0.0, 1.0, 0.999)


class TestModifiedKernel:
    def test_reduces_to_plain_series_at_beta_zero(self):
        v = BesselParams(0.7, 0.0)
        assert modified_q_bessel(v, 0.3, 0.5) == normalized_q_bessel(0.7, 0.3, 0.5)

    def test_prefactor_vanishes_at_one(self):
        # x = 1 leaves only the argument shift q^{-beta}
        v = BesselParams(0.5, 0.25)
        q = 0.5
        assert modified_q_bessel(v, 1.0, q) == normalized_q_bessel(
            v.nu, q ** -0.25, q)

    def test_composition_identity(self):
        # jtilde(x) = x^{-2 beta} j_nu(q^{-beta} x) rebuilt by hand
        v = BesselParams(0.5, 0.25)
        q = 0.5
        x = q ** 2
        by_hand = x ** (-2.0 * v.beta) * normalized_q_bessel(
            v.nu, q ** (-v.beta) * x, q)
        got = modified_q_bessel(v, x, q)
        assert got == by_hand
        assert math.isclose(got, 1.9288615822629438, rel_tol=1e-15)

    def test_nonpositive_argument_rejected(self):
        v = BesselParams(0.5, 0.25)
        with pytest.raises(ValueError, match="x > 0"):
            modified_q_bessel(v, 0.0, 0.5)


class TestDifferenceOperator:
    def test_constant_closed_form(self):
        # Delta c = c (1 - q^{2a})(1 - q^{2b}) / x^2
        q, c = 0.5, 3.0
        v = BesselParams(0.5, 0.25)
        g = build_grid(q, -4, 8)
        out = generalized_q_bessel_operator(GridFunction(g, np.full(g.size, c)), v)
        ref = c * (1.0 - q ** (2 * v.alpha)) * (1.0 - q ** (2 * v.beta)) \
            / out.grid.points ** 2
        np.testing.assert_allclose(out.values, ref, rtol=1e-13)

    def test_square_closed_form(self):
        # Delta x^2 = q^{-2} - q^{2a} - q^{2b} + q^{2a+2b+2}, a constant
        q = 0.5
        v = BesselParams(1.0, -0.25)
        g = build_grid(q, -4, 8)
        out = generalized_q_bessel_operator(GridFunction(g, g.points ** 2), v)
        ref = q ** -2 - q ** (2 * v.alpha) - q ** (2 * v.beta) \
            + q ** (2 * v.alpha + 2 * v.beta + 2)
        np.testing.assert_allclose(out.values, ref, rtol=1e-12)

    def test_zero_maps_to_zero(self):
        g = build_grid(0.5, -4, 8)
        out = generalized_q_bessel_operator(
            GridFunction.zeros(g), BesselParams(0.0, 0.0))
        assert np.all(out.values == 0.0)

    def test_output_drops_both_ends(self):
        g = build_grid(0.5, -4, 8)
        out = generalized_q_bessel_operator(
            GridFunction.zeros(g), BesselParams(0.0, 0.0))
        assert (out.grid.n_low, out.grid.n_high) == (-3, 7)

    def test_too_few_points_rejected(self):
        g = build_grid(0.5, 0, 1)
        with pytest.raises(ValueError, match="three grid points"):
            generalized_q_bessel_operator(
                GridFunction.zeros(g), BesselParams(0.0, 0.0))

    def test_eigenfunction_property(self):
        # the modified kernel at argument lam*x is an eigenfunction with
        # eigenvalue -lam^2, here checked on interior lattice points
        # keep x away from 0: the stencil difference shrinks like x^2, so
        # dividing by x^2 at tiny x amplifies rounding past any fixed rtol
        q, lam = 0.5, 1.0
        v = BesselParams(0.5, 0.25)
        g = build_grid(q, -2, 8)
        f = GridFunction(g, np.array(
            [modified_q_bessel(v, lam * x, q) for x in g.points]))
        out = generalized_q_bessel_operator(f, v)
        inner = f.values[1:-1]
        ratios = out.values / inner
        np.testing.assert_allclose(ratios, -lam ** 2, rtol=1e-9)


class TestLatticeTable:
    def test_matches_series_at_nonnegative_indices(self):
        # float64 series is trustworthy where no cancellation occurs
        nu, q = 0.25, 0.5
        tab = lattice_kernel(nu, q, 0, 12)
        for s in range(0, 13):
            ref = normalized_q_bessel(nu, q ** s, q)
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
