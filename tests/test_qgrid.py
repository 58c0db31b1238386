"""Grid construction, q-calculus primitives, and file I/O.

Oracles come first in each test: closed forms evaluated independently,
or brute-force reference sums, then the library value is compared."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwave.qgrid import (
    BesselParams,
    GridFunction,
    QGrid,
    build_grid,
    dilate,
    jackson_integral,
    jackson_weights,
    q_derivative,
    qpochhammer,
    read_function,
    weighted_p_norm,
    write_function,
)


def q_bracket(m, q):
    return (1.0 - q ** m) / (1.0 - q)


class TestGrid:
    def test_points_decrease_from_largest(self):
        g = build_grid(0.5, 0, 2)
        assert list(g.indices) == [0, 1, 2]
        assert list(g.points) == [1.0, 0.5, 0.25]

    def test_negative_indices_give_large_points(self):
        g = build_grid(0.5, -2, 3)
        assert g.points[0] == 4.0
        assert g.points[-1] == 0.125
        assert np.all(np.diff(g.points) < 0)

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.3])
    def test_q_outside_unit_interval_rejected(self, q):
        with pytest.raises(ValueError, match="q must lie in"):
            build_grid(q, 0, 5)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            build_grid(0.5, 3, 2)

    @pytest.mark.parametrize("n_low,n_high,bad,value", [
        (-1100, -1097, -1100, "inf"),
        (-1024, -1021, -1024, "inf"),
        (1072, 1075, 1075, "0"),
    ], ids=("overflow", "one-point-overflows", "underflow"))
    def test_points_off_float64_rejected(self, recwarn, n_low, n_high, bad,
                                         value):
        # 0.5^-1024 overflows and 0.5^1075 underflows to 0, which the grid
        # promises never to hold; 0.5^1074 is the smallest subnormal
        with pytest.raises(ValueError,
                           match=rf"q\^n = {value} .* at n = {bad} "):
            build_grid(0.5, n_low, n_high)
        assert len(recwarn) == 0

    def test_subnormal_points_allowed(self):
        g = build_grid(0.5, 1072, 1074)
        assert g.points[-1] == 2.0 ** -1074

    def test_pos_rejects_off_grid_index(self):
        g = build_grid(0.5, -2, 3)
        assert g.pos(-2) == 0
        assert g.pos(3) == 5
        with pytest.raises(ValueError, match="outside grid"):
            g.pos(4)


class TestGridFunction:
    def test_from_pairs_and_value_at(self):
        g = build_grid(0.5, -2, 3)
        f = GridFunction.from_pairs(g, [(0, 2.5), (2, -1.0)])
        assert f.value_at(0) == 2.5
        assert f.value_at(2) == -1.0
        assert f.value_at(1) == 0.0

    def test_support_bounds(self):
        g = build_grid(0.5, -2, 3)
        f = GridFunction.from_pairs(g, [(-1, 1.0), (2, 3.0)])
        assert f.support() == (-1, 2)
        assert GridFunction.zeros(g).support() is None

    def test_wrong_length_rejected(self):
        g = build_grid(0.5, 0, 4)
        with pytest.raises(ValueError, match="expected 5 values"):
            GridFunction(g, np.ones(4))

    def test_non_finite_rejected(self):
        g = build_grid(0.5, 0, 4)
        with pytest.raises(ValueError, match="finite"):
            GridFunction(g, [1.0, math.nan, 0.0, 0.0, 0.0])


class TestQPochhammer:
    def test_empty_product_is_one(self):
        assert qpochhammer(0.5, 0.5, 0) == 1.0

    def test_two_factor_product(self):
        # (1 - 0.5)(1 - 0.25) = 0.375
        assert qpochhammer(0.5, 0.5, 2) == 0.375

    def test_finite_matches_brute_force(self):
        for a, q, n in [(0.3, 0.7, 5), (-1.2, 0.4, 8), (0.9, 0.9, 12)]:
            ref = 1.0
            for k in range(n):
                ref *= 1.0 - a * q ** k
            assert math.isclose(qpochhammer(a, q, n), ref, rel_tol=1e-15)

    def test_infinite_product_value(self):
        got = qpochhammer(0.5, 0.5)
        assert math.isclose(got, 0.28878809508660242, rel_tol=1e-15)
        with mp.workdps(30):
            ref = float(mp.qp(mp.mpf("0.5"), mp.mpf("0.5")))
        assert math.isclose(got, ref, rel_tol=1e-14)

    def test_infinite_product_near_one_factors(self):
        # truncation must kick in before roundoff accumulates
        with mp.workdps(40):
            a, q = mp.mpf("0.1"), mp.mpf("0.99")
            ref, factor = mp.mpf(1), a
            while abs(factor) > mp.mpf("1e-25"):
                ref *= 1 - factor
                factor *= q
            ref = float(ref)
        assert math.isclose(qpochhammer(0.1, 0.99), ref, rel_tol=1e-12)

    @pytest.mark.parametrize("inf", [float("inf"), np.inf],
                             ids=("float", "numpy"))
    def test_any_infinite_n_gives_the_infinite_product(self, inf):
        # n is compared with infinity by value, not by identity
        assert qpochhammer(0.3, 0.5, inf) == qpochhammer(0.3, 0.5, math.inf)


class TestJacksonIntegral:
    def test_constant_over_interval_gives_length(self):
        g = build_grid(0.5, -10, 30)
        one = lambda x: 1.0
        for a, b in [(0.0, 1.0), (0.25, 4.0), (0.0, 0.5)]:
            got = jackson_integral(one, g, a, b)
            assert math.isclose(got, b - a, rel_tol=1e-13)

    def test_identity_on_unit_interval(self):
        # sum (1-q) q^{2n} = (1-q)/(1-q^2) = 1/(1+q) = 2/3 at q = 0.5
        g = build_grid(0.5, -10, 30)
        got = jackson_integral(lambda x: x, g, 0.0, 1.0)
        assert math.isclose(got, 2.0 / 3.0, rel_tol=1e-13)

    def test_zero_integrand(self):
        g = build_grid(0.5, -10, 30)
        assert jackson_integral(lambda x: 0.0, g, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("k", range(9))
    def test_power_rule(self, q, k):
        # int_0^1 x^k d_q x = 1 / [k+1]_q
        g = build_grid(q, -10, 30)
        got = jackson_integral(lambda x, k=k: x ** k, g, 0.0, 1.0)
        assert math.isclose(got, 1.0 / q_bracket(k + 1, q), rel_tol=1e-12)

    def test_interval_additivity(self):
        g = build_grid(0.5, -10, 30)
        f = lambda x: x * x - 0.5 * x
        whole = jackson_integral(f, g, 0.0, 2.0)
        parts = (jackson_integral(f, g, 0.0, 0.5)
                 + jackson_integral(f, g, 0.5, 2.0))
        assert math.isclose(whole, parts, rel_tol=1e-13)

    def test_endpoint_off_lattice_rejected(self):
        g = build_grid(0.5, -10, 30)
        with pytest.raises(ValueError):
            jackson_integral(lambda x: 1.0, g, 0.0, 0.3)

    def test_unbounded_upper_limit(self):
        # int_0^inf e-like decay: f(x) = q-geometric tail sums in closed form
        # with f = indicator-free closed form: int_0^inf x d_q x diverges, so
        # use f(x) = 1/(1+x^4) and just require Chasles against a split point
        g = build_grid(0.5, -10, 30)
        f = lambda x: 1.0 / (1.0 + x ** 4)
        whole = jackson_integral(f, g, 0.0, math.inf)
        split = (jackson_integral(f, g, 0.0, 1.0)
                 + jackson_integral(f, g, 1.0, math.inf))
        assert math.isclose(whole, split, rel_tol=1e-13)

    @pytest.mark.parametrize("inf", [float("inf"), np.inf],
                             ids=("float", "numpy"))
    def test_any_infinite_upper_limit(self, inf):
        # b is compared with infinity by value, not by identity
        g = build_grid(0.5, -10, 30)
        f = lambda x: 1.0 / (1.0 + x ** 4)
        for a in (0.0, 1.0):
            assert (jackson_integral(f, g, a, inf)
                    == jackson_integral(f, g, a, math.inf))


class TestQDerivative:
    def test_constant_maps_to_zero(self):
        g = build_grid(0.5, -5, 10)
        f = GridFunction(g, np.full(g.size, 3.7))
        assert np.all(q_derivative(f).values == 0.0)

    def test_identity_maps_to_one(self):
        g = build_grid(0.5, -5, 10)
        f = GridFunction(g, g.points.copy())
        out = q_derivative(f)
        np.testing.assert_allclose(out.values, 1.0, rtol=1e-14)

    def test_square_maps_to_one_plus_q_times_x(self):
        q = 0.5
        g = build_grid(q, -5, 10)
        f = GridFunction(g, g.points ** 2)
        out = q_derivative(f)
        np.testing.assert_allclose(out.values, (1.0 + q) * out.grid.points,
                                   rtol=1e-14)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_power_rule(self, q, k):
        # D_q x^k = [k]_q x^{k-1}
        g = build_grid(q, -5, 15)
        f = GridFunction(g, g.points ** k)
        out = q_derivative(f)
        ref = q_bracket(k, q) * out.grid.points ** (k - 1)
        np.testing.assert_allclose(out.values, ref, rtol=1e-12)

    def test_output_grid_drops_smallest_point(self):
        g = build_grid(0.5, -5, 10)
        out = q_derivative(GridFunction(g, g.points))
        assert out.grid.n_low == -5
        assert out.grid.n_high == 9


class TestWeightedNorms:
    def test_indicator_norm_value(self):
        # ||1_{q^1}||^2 = (1-q) q^{n(2|v|+2)} = 0.5 * 0.5^2 = 0.125
        g = build_grid(0.5, -10, 20)
        v = BesselParams(0.0, 0.0)
        f = GridFunction.from_pairs(g, [(1, 1.0)])
        assert weighted_p_norm(f, 2, v) ** 2 == pytest.approx(0.125, rel=1e-15)

    def test_scaling_homogeneity(self):
        g = build_grid(0.5, -10, 20)
        v = BesselParams(0.5, 0.25)
        f = GridFunction.from_pairs(g, [(0, 1.0), (3, -2.0)])
        base = weighted_p_norm(f, 2, v)
        assert weighted_p_norm(f.scaled(-3.0), 2, v) == pytest.approx(
            3.0 * base, rel=1e-14)

    def test_p_below_one_rejected(self):
        g = build_grid(0.5, 0, 5)
        f = GridFunction.from_pairs(g, [(1, 1.0)])
        with pytest.raises(ValueError):
            weighted_p_norm(f, 0.5, BesselParams(0.0, 0.0))

    def test_weights_match_definition(self):
        q = 0.3
        v = BesselParams(1.0, -0.25)
        g = build_grid(q, -4, 6)
        w = jackson_weights(g, v)
        expo = 2.0 * v.abs_v + 2.0
        ref = (1.0 - q) * g.points ** expo
        np.testing.assert_allclose(w, ref, rtol=1e-14)

    @pytest.mark.parametrize("q,n_low,n_high", [(0.5, 1000, 1001),
                                                (0.5, 1000, 1074),
                                                (0.3, 400, 410)])
    def test_all_weights_underflowing_rejected(self, q, n_low, n_high):
        # every q^{2n} sits below the smallest subnormal: a weight vector
        # of zeros would make every Jackson sum on the grid 0
        with pytest.raises(ValueError, match=rf"every Jackson weight .* "
                           rf"underflows to 0 on \[{n_low}, {n_high}\]"):
            jackson_weights(build_grid(q, n_low, n_high),
                            BesselParams(0.0, 0.0))

    @pytest.mark.parametrize("q,zeros,first", [(0.3, 144, 177),
                                               (0.5, 14, 307),
                                               (0.7, 0, None)])
    def test_sweep_grid_keeps_its_deep_underflow(self, q, zeros, first):
        # the sweep grid [-160, 320] underflows at its deep end only; it
        # must still build
        g = build_grid(q, -160, 320)
        w = jackson_weights(g, BesselParams(0.5, 0.25))
        bad = np.flatnonzero(w == 0.0)
        assert len(bad) == zeros
        if zeros:
            assert g.indices[bad[0]] == first
            assert np.all(w[bad[0]:] == 0.0) and np.all(w[:bad[0]] > 0.0)


class TestDilate:
    def test_zero_shift_is_identity(self):
        g = build_grid(0.5, -5, 10)
        f = GridFunction.from_pairs(g, [(0, 1.0), (2, -0.5)])
        np.testing.assert_array_equal(dilate(f, 0).values, f.values)

    def test_indicator_shifts_one_index(self):
        g = build_grid(0.5, -5, 10)
        f = GridFunction.from_pairs(g, [(2, 1.0)])
        out = dilate(f, 1)
        assert out.value_at(3) == 1.0
        assert np.count_nonzero(out.values) == 1

    def test_change_of_variables_identity(self):
        # int f(t) t^{2|v|+1} d_q t = a^{-(2|v|+2)} int f(x/a) x^{2|v|+1} d_q x
        q, m = 0.5, 2
        v = BesselParams(0.5, 0.25)
        g = build_grid(q, -20, 40)
        f = GridFunction.from_pairs(g, [(0, 1.0), (1, -0.3), (4, 2.0)])
        w = jackson_weights(g, v)
        lhs = math.fsum(f.values * w)
        rhs = q ** (-m * (2.0 * v.abs_v + 2.0)) * math.fsum(
            dilate(f, m).values * w)
        assert abs(lhs - rhs) < 1e-12

    def test_support_overflow_rejected(self):
        g = build_grid(0.5, -5, 10)
        f = GridFunction.from_pairs(g, [(9, 1.0)])
        with pytest.raises(ValueError, match="off the grid"):
            dilate(f, 2)

    def test_shift_composition(self):
        g = build_grid(0.5, -5, 10)
        f = GridFunction.from_pairs(g, [(0, 1.0), (1, 2.0)])
        np.testing.assert_array_equal(
            dilate(dilate(f, 1), 2).values, dilate(f, 3).values)


class TestFileRoundTrip:
    def test_write_read_bit_exact(self, tmp_path):
        g = build_grid(0.7, -8, 12)
        f = GridFunction(g, np.sin(np.arange(g.size) * 0.37) * 1e-3)
        path = str(tmp_path / "f.csv")
        write_function(f, path)
        back = read_function(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)

    def test_sidecar_carries_grid(self, tmp_path):
        g = build_grid(0.3, 0, 5)
        path = str(tmp_path / "g.csv")
        write_function(GridFunction.zeros(g), path)
        back = read_function(path)
        assert (back.grid.q, back.grid.n_low, back.grid.n_high) == (0.3, 0, 5)

    def test_bad_header_rejected(self, tmp_path):
        g = build_grid(0.5, 0, 3)
        path = str(tmp_path / "h.csv")
        write_function(GridFunction.zeros(g), path)
        raw = open(path).read()
        open(path, "w").write(raw.replace("n,value", "index,val"))
        with pytest.raises(ValueError, match="header"):
            read_function(path)

    def test_index_listed_twice_rejected(self, tmp_path):
        g = build_grid(0.5, 0, 3)
        path = str(tmp_path / "d.csv")
        write_function(GridFunction.zeros(g), path)
        open(path, "w").write("n,value\n0,1\n2,3\n0,2\n")
        with pytest.raises(ValueError, match="index 0 listed twice"):
            read_function(path)

    def test_outputs_are_lf_terminated(self, tmp_path):
        g = build_grid(0.5, 0, 3)
        path = str(tmp_path / "i.csv")
        write_function(GridFunction.zeros(g), path)
        raw = open(path, "rb").read()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


finite_coeffs = st.floats(min_value=-100, max_value=100,
                          allow_nan=False, allow_infinity=False)


@given(a=finite_coeffs, b=finite_coeffs)
def test_jackson_weighted_sum_is_linear(a, b):
    g = build_grid(0.5, -5, 15)
    v = BesselParams(0.0, 0.0)
    w = jackson_weights(g, v)
    f = GridFunction.from_pairs(g, [(0, 1.0), (2, -1.0)])
    h = GridFunction.from_pairs(g, [(1, 2.0), (3, 0.5)])
    combo = GridFunction(g, a * f.values + b * h.values)
    lhs = math.fsum(combo.values * w)
    rhs = a * math.fsum(f.values * w) + b * math.fsum(h.values * w)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


@given(lam=st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False),
       p=st.floats(min_value=1.0, max_value=6.0))
def test_norm_homogeneity(lam, p):
    g = build_grid(0.5, -5, 15)
    v = BesselParams(0.5, 0.25)
    f = GridFunction.from_pairs(g, [(0, 0.7), (4, -1.1)])
    base = weighted_p_norm(f, p, v)
    got = weighted_p_norm(f.scaled(lam), p, v)
    assert math.isclose(got, abs(lam) * base, rel_tol=1e-10, abs_tol=1e-12)


@given(m=st.integers(min_value=-3, max_value=3))
def test_dilate_preserves_values(m):
    g = build_grid(0.5, -5, 10)
    f = GridFunction.from_pairs(g, [(0, 1.5), (2, -0.25)])
    out = dilate(f, m)
    assert out.value_at(m) == 1.5
    assert out.value_at(2 + m) == -0.25
