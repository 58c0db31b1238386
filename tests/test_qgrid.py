"""Grid construction, q-calculus primitives, and file I/O.

Oracles come first in each test: closed forms evaluated independently,
or brute-force reference sums, then the library value is compared."""

import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qwave import qgrid
from qwave.qgrid import (
    BesselParams,
    GridFunction,
    QGrid,
    build_grid,
    dilate,
    function_csv,
    jackson_integral,
    jackson_weights,
    q_derivative,
    read_function,
    sidecar_path,
    write_function,
    write_in_place,
)

from conftest import line_read_function


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
        (0, 10 ** 6, 10 ** 6, "0"),
    ], ids=("overflow", "one-point-overflows", "underflow", "million-points"))
    def test_points_off_float64_rejected(self, recwarn, n_low, n_high, bad,
                                         value):
        # 0.5^-1024 overflows and 0.5^1075 underflows to 0, which the grid
        # promises never to hold; 0.5^1074 is the smallest subnormal. The
        # grid is refused on its end points, before its index and point
        # arrays are built.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=rf"q\^n = {value} .* at n = {bad} "):
                build_grid(0.5, n_low, n_high)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert len(recwarn) == 0

    def test_grid_too_large_to_allocate_rejected(self, monkeypatch):
        # q = 1 - 1e-13 on [0, 10^12] passes the end-point check (its
        # last point is e^-0.1) but asks for terabytes; numpy's
        # MemoryError is stood in for, not provoked
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(qgrid.np, "arange", refuse)
        with pytest.raises(ValueError, match=r"^grid \[0, 1000000000000\] "
                           r"of 1000000000001 points is too large"):
            build_grid(1.0 - 1e-13, 0, 10 ** 12)

    def test_subnormal_points_allowed(self):
        g = build_grid(0.5, 1072, 1074)
        assert g.points[-1] == 2.0 ** -1074

    def test_pos_rejects_off_grid_index(self):
        g = build_grid(0.5, -2, 3)
        assert g.pos(-2) == 0
        assert g.pos(3) == 5
        with pytest.raises(ValueError, match="outside grid"):
            g.pos(4)

    @pytest.mark.parametrize("n_low,n_high", [
        (-1.5, 3.7), (0, 3.7), (-math.inf, 3), (0, math.inf),
        (math.nan, 3), (0, math.nan)],
        ids=("both-fractional", "fractional-high", "-inf", "inf", "nan-low",
             "nan-high"))
    def test_non_integral_end_rejected(self, n_low, n_high):
        # [-1.5, 3.7] was once truncated to [-1, 3], and an infinite end
        # raised OverflowError
        with pytest.raises(ValueError, match=r"^the grid needs an integer "
                           r"n_(low|high), got "):
            build_grid(0.5, n_low, n_high)

    def test_integral_ends_of_any_type(self):
        for n_low, n_high in ((-1.0, 3.0), (np.int64(-1), np.int64(3)),
                              (np.float64(-1.0), 3)):
            g = build_grid(0.5, n_low, n_high)
            assert g == build_grid(0.5, -1, 3)
            assert type(g.n_low) is int and type(g.n_high) is int

    @pytest.mark.parametrize("n", [0.5, 0.9, -1.5, math.nan, math.inf],
                             ids=("0.5", "0.9", "-1.5", "nan", "inf"))
    def test_non_integral_index_rejected(self, n):
        # 0.5 and 0.9 were once truncated to index 0, in pos and in
        # from_pairs and value_at through it
        g = build_grid(0.5, -2, 3)
        f = GridFunction.from_pairs(g, [(0, 1.0)])
        message = "^a grid index must be an integer, got "
        with pytest.raises(ValueError, match=message):
            g.pos(n)
        with pytest.raises(ValueError, match=message):
            GridFunction.from_pairs(g, [(n, 1.0)])
        with pytest.raises(ValueError, match=message):
            f.value_at(n)

    def test_integral_index_of_any_type(self):
        g = build_grid(0.5, -2, 3)
        for n in (2.0, np.int64(2), np.float64(2.0)):
            assert g.pos(n) == 4


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


class TestBesselParams:
    @pytest.mark.parametrize("alpha,beta,name", [
        (math.nan, 0.0, "alpha"), (0.0, math.nan, "beta"),
        (math.inf, 0.0, "alpha"), (0.0, math.inf, "beta"),
        (-math.inf, math.inf, "alpha"), (1e308, 1e308, "alpha + beta"),
    ], ids=("alpha-nan", "beta-nan", "alpha-inf", "beta-inf",
            "opposite-infs", "sum-overflows"))
    def test_non_finite_parameter_rejected(self, recwarn, alpha, beta, name):
        # each was accepted once, and gave a misleading error later (or
        # a finite Bessel value for alpha = inf)
        with pytest.raises(ValueError) as exc:
            BesselParams(alpha, beta)
        assert str(exc.value).startswith(f"{name} must be finite, got ")
        assert len(recwarn) == 0


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

    @pytest.mark.parametrize("end", ["a", "b"])
    @pytest.mark.parametrize("bad", [-1.0, -math.inf, math.nan],
                             ids=("negative", "minus-inf", "nan"))
    def test_endpoint_with_no_log_rejected(self, end, bad):
        # these raised "math domain error" or "cannot convert float NaN
        # to integer", from the log and the round of the grid-point test
        g = build_grid(0.5, -10, 30)
        a, b = (bad, 1.0) if end == "a" else (0.0, bad)
        with pytest.raises(ValueError,
                           match=f"^endpoint {bad} is not a grid point$"):
            jackson_integral(lambda x: 1.0, g, a, b)

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

    @pytest.mark.parametrize("m", [1.5, -0.5, math.nan, math.inf],
                             ids=("1.5", "-0.5", "nan", "inf"))
    def test_non_integral_shift_rejected(self, m):
        # 1.5 was once truncated to 1, and nan raised a conversion error
        g = build_grid(0.5, -5, 10)
        f = GridFunction.from_pairs(g, [(0, 1.0), (2, -0.5)])
        with pytest.raises(ValueError, match="integer m, got"):
            dilate(f, m)

    def test_integral_shift_of_any_type(self):
        g = build_grid(0.5, -5, 10)
        f = GridFunction.from_pairs(g, [(0, 1.0), (2, -0.5)])
        for m in (2.0, np.int64(2), np.float64(2.0)):
            np.testing.assert_array_equal(dilate(f, m).values,
                                          dilate(f, 2).values)

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

    @pytest.mark.parametrize("blocked", ["csv", "sidecar"])
    def test_both_files_or_neither(self, tmp_path, blocked):
        # a directory where one of the two files goes: the write fails
        # and leaves neither file nor a temporary behind
        g = build_grid(0.5, 0, 3)
        (tmp_path / f"x.{'csv' if blocked == 'csv' else 'json'}").mkdir()
        with pytest.raises(IsADirectoryError):
            write_function(GridFunction.zeros(g), str(tmp_path / "x.csv"))
        assert [(p.name, p.is_dir()) for p in tmp_path.iterdir()] == [
            (f"x.{'csv' if blocked == 'csv' else 'json'}", True)]

    def test_rewrite_replaces_both_files(self, tmp_path):
        path = str(tmp_path / "f.csv")
        write_function(GridFunction.zeros(build_grid(0.5, 0, 3)), path)
        g = build_grid(0.3, -2, 4)
        write_function(GridFunction.from_pairs(g, [(1, 2.5)]), path)
        back = read_function(path)
        assert back.grid == g
        assert back.values.tolist() == [0.0, 0.0, 0.0, 2.5, 0.0, 0.0, 0.0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv",
                                                             "f.json"]

    def test_own_sidecar_rejected(self, tmp_path):
        # g.json would be the CSV and its sidecar at once
        with pytest.raises(ValueError, match="its own sidecar"):
            write_function(GridFunction.zeros(build_grid(0.5, 0, 3)),
                           str(tmp_path / "g.json"))
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="its own sidecar"):
            read_function(str(tmp_path / "g.json"))

    def test_rewrite_through_links(self, tmp_path):
        # symlinks stay links to the rewritten targets, and a hard link
        # to the CSV sees the new content
        target = tmp_path / "t.csv"
        write_function(GridFunction.zeros(build_grid(0.5, 0, 3)), str(target))
        for ext in ("csv", "json"):
            (tmp_path / f"s.{ext}").symlink_to(tmp_path / f"t.{ext}")
        os.link(target, tmp_path / "h.csv")
        g = build_grid(0.3, -2, 4)
        write_function(GridFunction.from_pairs(g, [(1, 2.5)]),
                       str(tmp_path / "s.csv"))
        assert (tmp_path / "s.csv").is_symlink()
        assert (tmp_path / "s.json").is_symlink()
        back = read_function(str(target))
        assert back.grid == g and back.value_at(1) == 2.5
        assert (tmp_path / "h.csv").read_bytes() == target.read_bytes()

    def test_sidecar_follows_a_linked_csv(self, tmp_path):
        # only the CSV is linked: the sidecar is the one beside the
        # link's target, not a new file beside the link
        target = tmp_path / "t.csv"
        write_function(GridFunction.zeros(build_grid(0.5, 0, 3)), str(target))
        (tmp_path / "s.csv").symlink_to(target)
        g = build_grid(0.3, -2, 4)
        write_function(GridFunction.from_pairs(g, [(1, 2.5)]),
                       str(tmp_path / "s.csv"))
        assert not (tmp_path / "s.json").exists()
        for path in (target, tmp_path / "s.csv"):
            back = read_function(str(path))
            assert back.grid == g and back.value_at(1) == 2.5

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

    def test_round_trip_keeps_extreme_bits(self, tmp_path):
        # -0.0, subnormals and values near the top of float64 come back
        # bit for bit, the sign of zero included
        g = build_grid(0.5, -3, 5)
        f = GridFunction(g, [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             1e-310, 1e308, -1e308, 1.7976931348623157e308,
                             0.0])
        path = str(tmp_path / "x.csv")
        write_function(f, path)
        assert read_function(path).values.tobytes() == f.values.tobytes()


class TestSidecarPath:
    """The sidecar is the .json beside the file the CSV's path names
    through its own chain of links; the directories on the way are left
    to the kernel. Each case is also checked against os.path.realpath,
    the rule the sidecar once followed."""

    @staticmethod
    def write(path, value=2.5):
        g = build_grid(0.3, -2, 4)
        write_function(GridFunction.from_pairs(g, [(1, value)]), str(path))
        back = read_function(str(path))
        assert back.grid == g and back.value_at(1) == value

    @staticmethod
    def same_as_realpath(path):
        root, _ = os.path.splitext(os.path.realpath(path))
        assert os.path.samefile(sidecar_path(str(path)), root + ".json")

    def test_through_a_linked_directory(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        (tmp_path / "ld").symlink_to(real, target_is_directory=True)
        path = tmp_path / "ld" / "f.csv"
        self.write(path)
        assert sidecar_path(str(path)) == str(tmp_path / "ld" / "f.json")
        assert sorted(p.name for p in real.iterdir()) == ["f.csv", "f.json"]
        self.same_as_realpath(path)

    def test_chain_of_two_links(self, tmp_path):
        self.write(tmp_path / "t.csv", 1.0)
        (tmp_path / "b.csv").symlink_to("t.csv")
        (tmp_path / "a.csv").symlink_to(tmp_path / "b.csv")
        assert sidecar_path(str(tmp_path / "a.csv")) == str(tmp_path / "t.json")
        self.write(tmp_path / "a.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.csv", "b.csv", "t.csv", "t.json"]
        assert read_function(str(tmp_path / "t.csv")).value_at(1) == 2.5
        self.same_as_realpath(tmp_path / "a.csv")

    def test_dangling_link(self, tmp_path):
        # writing through the link creates its target, and the sidecar
        # beside the target
        (tmp_path / "s.csv").symlink_to("t.csv")
        assert sidecar_path(str(tmp_path / "s.csv")) == str(tmp_path / "t.json")
        self.write(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "s.csv", "t.csv", "t.json"]
        self.same_as_realpath(tmp_path / "s.csv")

    def test_relative_target_holding_dotdot(self, tmp_path):
        # x links to deep/a, and deep/a/s.csv to ../b/t.csv: the ".."
        # leaves deep/a, where the link sits, so both files land in
        # deep/b; read lexically, x/../b would be the empty b beside x
        (tmp_path / "deep" / "a").mkdir(parents=True)
        (tmp_path / "deep" / "b").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "x").symlink_to(tmp_path / "deep" / "a",
                                    target_is_directory=True)
        (tmp_path / "deep" / "a" / "s.csv").symlink_to(
            os.path.join("..", "b", "t.csv"))
        path = tmp_path / "x" / "s.csv"
        self.write(path)
        assert sidecar_path(str(path)) == os.path.join(
            str(tmp_path / "x"), "..", "b", "t.json")
        assert sorted(p.name for p in (tmp_path / "deep" / "b").iterdir()) \
            == ["t.csv", "t.json"]
        assert list((tmp_path / "b").iterdir()) == []
        self.same_as_realpath(path)

    def test_link_to_a_json_file_is_its_own_sidecar(self, tmp_path):
        (tmp_path / "t.json").write_text("{}\n")
        (tmp_path / "s.csv").symlink_to("t.json")
        path = str(tmp_path / "s.csv")
        with pytest.raises(ValueError, match="its own sidecar"):
            sidecar_path(path)
        with pytest.raises(ValueError, match="its own sidecar"):
            write_function(GridFunction.zeros(build_grid(0.5, 0, 3)), path)
        with pytest.raises(ValueError, match="its own sidecar"):
            read_function(path)
        assert (tmp_path / "t.json").read_text() == "{}\n"

    def test_link_loop_stops(self, tmp_path):
        # the walk stops after the kernel's link limit; opening the CSV
        # then fails, and nothing is written
        (tmp_path / "l.csv").symlink_to("m.csv")
        (tmp_path / "m.csv").symlink_to("l.csv")
        assert sidecar_path(str(tmp_path / "l.csv")) == str(tmp_path / "l.json")
        with pytest.raises(OSError):
            write_function(GridFunction.zeros(build_grid(0.5, 0, 3)),
                           str(tmp_path / "l.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv",
                                                             "m.csv"]


# The differential test of read_function against conftest's line reader:
# CSV bodies on the grid [-3, 5], valid rows written in the ways the
# reader takes, with defects injected among them.
IO_GRID = (0.5, -3, 5)
_INDEX_FORMATS = ("%d", "%+d", " %d", "%d ", "\t%d")
_VALUE_FORMATS = ("%r", "%.17g", " %r", "%r  ")
_DEFECTS = {
    "bad int": ["x,1", "1.5,2", ",3", "0x1,2", "--1,0"],
    "bad float": ["1,abc", "2,", "0,0x1p3", "3,1..5", "4,1e"],
    "three fields": ["1,2,3", ",,", "0,1,"],
    "missing comma": ["12", "1 2", "abc"],
    "blank": ["", "   ", "\t", " \t "],
    "off grid": ["-4,1", "6,1", "100000000000000000000000,1", "-9,0"],
    # two defects on one line: the value is converted before the index
    # is placed, so the bad value's error comes first
    "off grid, bad value": ["-4,abc", "6,", "9,1..5"],
    "not finite": ["0,nan", "1,-inf", "2,1e999", "3,NaN"],
    "signed zero": ["-0,2.5", "+0,-0", "0,-0.0"],
}


@st.composite
def csv_texts(draw):
    _, n_low, n_high = IO_GRID
    ns = draw(st.lists(st.integers(n_low, n_high), unique=True, max_size=9))
    lines = []
    for n in ns:
        value = draw(st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 5e-324, 1e308, -1e-310])))
        lines.append(draw(st.sampled_from(_INDEX_FORMATS)) % n + ","
                     + draw(st.sampled_from(_VALUE_FORMATS)) % value)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(sorted(_DEFECTS) + ["duplicate"]))
        if kind == "duplicate":
            if not ns:
                continue
            line = "%d,1.25" % draw(st.sampled_from(ns))
        else:
            line = draw(st.sampled_from(_DEFECTS[kind]))
        lines.insert(draw(st.integers(0, len(lines))), line)
    # one header in ten is wrong, so that the rows are what mostly varies
    header = draw(st.sampled_from(
        ["n,value", " n,value\t", "n,value "] * 3
        + [draw(st.sampled_from(["n, value", "index,value", ""]))]))
    # one line end for the file, or each drawn on its own (so "\r\r\n"
    # and "\r\n\r" turn up)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", None]))
    ends = [eol or draw(st.sampled_from(["\n", "\r\n", "\r"]))
            for _ in range(len(lines) + 1)]
    text = header + "".join(end + line for end, line in zip(ends, lines))
    return text + ends[-1] if draw(st.booleans()) else text


def read_outcome(read, path):
    """The grid and value bytes read returns, or its ValueError."""
    try:
        f = read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return f.grid, f.values.tobytes()


@pytest.fixture(scope="module")
def io_csv(tmp_path_factory):
    """A path f.csv on IO_GRID whose sidecar is written; each example
    writes its own CSV there."""
    path = tmp_path_factory.mktemp("reader") / "f.csv"
    write_function(GridFunction.zeros(build_grid(*IO_GRID)), str(path))
    return path


@settings(derandomize=True, max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_texts())
@example(text="n,value\n0,1.5\n99,abc\n")
@example(text="n,value\r\n-4,abc\r\n")
def test_reader_matches_line_reader(io_csv, text):
    io_csv.write_text(text, encoding="utf-8", newline="")
    want = read_outcome(line_read_function, str(io_csv))
    assert read_outcome(read_function, str(io_csv)) == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=9, max_size=9))
def test_function_csv_matches_per_line_format(values):
    # one % over the interleaved cells gives the bytes of one % per line
    f = GridFunction(build_grid(*IO_GRID), values)
    assert function_csv(f) == "n,value\n" + "".join(
        "%d,%.17g\n" % nv
        for nv in zip(f.grid.indices.tolist(), f.values.tolist()))


class TestWriteInPlace:
    def test_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("old\n")
        path.chmod(0o600)
        inode = path.stat().st_ino
        write_in_place(str(path), "new\n")
        info = path.stat()
        assert (info.st_ino, stat.S_IMODE(info.st_mode)) == (inode, 0o600)
        assert path.read_text() == "new\n"

    @pytest.mark.parametrize("old,new", [("x" * 1000, "short\n"),
                                         ("a\n", "longer text\n"),
                                         ("abc", "")])
    def test_cut_to_the_new_length(self, tmp_path, old, new):
        # no stale tail of a longer file, and nothing lost of a longer text
        path = tmp_path / "f.txt"
        path.write_text(old)
        write_in_place(str(path), new)
        assert path.read_bytes() == new.encode("utf-8")

    def test_utf8_bytes_and_no_newline_translation(self, tmp_path):
        path = tmp_path / "f.txt"
        write_in_place(str(path), "\u03be,1\r\n2\n")
        assert path.read_bytes() == "\u03be,1\r\n2\n".encode("utf-8")

    def test_new_file_mode_is_open_w(self, tmp_path):
        mask = os.umask(0o027)
        try:
            write_in_place(str(tmp_path / "a"), "x")
            with open(tmp_path / "b", "w") as fh:
                fh.write("x")
        finally:
            os.umask(mask)
        modes = {stat.S_IMODE((tmp_path / n).stat().st_mode) for n in "ab"}
        assert modes == {0o666 & ~0o027}

    def test_devices_and_fifos_are_not_cut(self, tmp_path):
        # ftruncate would fail on either; the bytes still arrive
        write_in_place(os.devnull, "discarded\n")
        fifo = tmp_path / "p"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_in_place(str(fifo), "through\n")
            assert os.read(reader, 100) == b"through\n"
        finally:
            os.close(reader)

    def test_open_only_with_none(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("kept\n")
        opened = []
        write_in_place(str(path), None, opened)
        write_in_place(str(tmp_path / "new"), None)
        assert (path.read_text(), opened) == ("kept\n", [str(path)])
        assert (tmp_path / "new").read_bytes() == b""

    def test_failed_open_is_not_recorded(self, tmp_path):
        opened = []
        with pytest.raises(IsADirectoryError):
            write_in_place(str(tmp_path), "x", opened)
        assert opened == []


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


@given(m=st.integers(min_value=-3, max_value=3))
def test_dilate_preserves_values(m):
    g = build_grid(0.5, -5, 10)
    f = GridFunction.from_pairs(g, [(0, 1.5), (2, -0.25)])
    out = dilate(f, m)
    assert out.value_at(m) == 1.5
    assert out.value_at(2 + m) == -0.25
